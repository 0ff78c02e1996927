"""Correspondence calculus tests: composition, graphs, idempotent splitting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stacky.corresp import (
    Correspondence,
    compose,
    eye,
    graph_correspondences,
    is_idempotent,
    mat_mul,
    matrix,
    rref,
    split_idempotent,
    splitting_certificate,
    transpose,
)
from stacky.errors import (
    NotEquidegreeError,
    NotIdempotentError,
    NotTotalError,
    ShapeMismatchError,
)
from stacky.motives import UNIT, Atom, Motive


def test_rref_rank_against_brute_force():
    rng = random.Random(13)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(m)] for _ in range(n)])
        rank = len(rref(a)[1])
        # oracle: rank = size of the largest invertible square submatrix,
        # probed via determinants of all square submatrices
        from itertools import combinations

        def det(sub):
            if len(sub) == 1:
                return sub[0][0]
            return sum((-1) ** j * sub[0][j] *
                       det([row[:j] + row[j + 1:] for row in sub[1:]])
                       for j in range(len(sub)))

        best = 0
        for k in range(1, min(n, m) + 1):
            for rows in combinations(range(n), k):
                for cols in combinations(range(m), k):
                    sub = [[a[i][j] for j in cols] for i in rows]
                    if det(sub) != 0:
                        best = max(best, k)
        assert rank == best


def test_identity_and_swap_composition():
    M = Motive.point(2)
    ident = Correspondence.identity(M)
    assert compose(ident, ident) == ident
    swap = Correspondence(M, M, {0: matrix([[0, 1], [1, 0]])})
    assert compose(swap, swap) == ident


def test_cover_composition_gives_degree():
    pull, push = graph_correspondences([0, 0], 2, 1)
    deg = compose(push, pull)
    assert deg.block(0) == matrix([[2]])


def test_transpose_involution_and_antihomomorphism():
    rng = random.Random(17)
    for _ in range(20):
        a = Correspondence.single_twist(0, [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                                            for _ in range(3)])
        b = Correspondence.single_twist(0, [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                                            for _ in range(3)])
        assert transpose(transpose(a)) == a
        assert transpose(compose(a, b)) == compose(transpose(b), transpose(a))


def test_compose_requires_matching_endpoints():
    a = Correspondence.identity(Motive.point(2))
    b = Correspondence.identity(Motive.point(3))
    with pytest.raises(ShapeMismatchError):
        compose(a, b)


def test_correspondence_is_unhashable():
    # equality reads an absent twist as a zero block, so no hash of the fields
    # agrees with it; defining __eq__ leaves the class unhashable
    with pytest.raises(TypeError, match="unhashable type: 'Correspondence'"):
        hash(Correspondence.single_twist(0, [[1]]))


def test_correspondence_rejects_opaque_motives():
    curve = Motive.of([(Atom.h1(1), 0, 1)])
    with pytest.raises(ShapeMismatchError):
        Correspondence(curve, curve, {})


def test_graph_correspondences():
    pull, push = graph_correspondences([0, 0], 2, 1)
    assert pull.block(0) == matrix([[1], [1]])
    assert push.block(0) == matrix([[1, 1]])
    ident_pull, ident_push = graph_correspondences([0, 1, 2], 3, 3)
    assert ident_pull == Correspondence.identity(Motive.point(3))
    assert ident_push == Correspondence.identity(Motive.point(3))
    # fibers of sizes 2 and 1
    pull3, push3 = graph_correspondences([0, 0, 1], 3, 2)
    assert compose(push3, pull3).block(0) == matrix([[2, 0], [0, 1]])


def test_graph_functoriality():
    # [ (g o f)^* ] = [f^*] o [g^*] over random maps
    rng = random.Random(23)
    for _ in range(25):
        n, k, l = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        f = [rng.randrange(k) for _ in range(n)]
        g = [rng.randrange(l) for _ in range(k)]
        gf = [g[f[i]] for i in range(n)]
        pull_f, _ = graph_correspondences(f, n, k)
        pull_g, _ = graph_correspondences(g, k, l)
        pull_gf, _ = graph_correspondences(gf, n, l)
        assert pull_gf == compose(pull_f, pull_g)


def test_graph_rejects_out_of_range():
    with pytest.raises(NotTotalError):
        graph_correspondences([0, 2], 2, 2)
    with pytest.raises(NotTotalError):
        graph_correspondences([0], 2, 1)


def test_split_averaging_projector():
    half = Fraction(1, 2)
    p = Correspondence.single_twist(0, [[half, half], [half, half]])
    assert is_idempotent(p)
    factor = split_idempotent(p)
    assert factor.image == Motive.point(1)
    assert compose(factor.retraction, factor.inclusion) == Correspondence.identity(factor.image)
    assert compose(factor.inclusion, factor.retraction) == p


def test_split_identity_and_zero():
    M = Motive.of([(Atom.unit(), 0, 2), (Atom.unit(), 1, 1)])
    ident = Correspondence.identity(M)
    factor = split_idempotent(ident)
    assert factor.image == M
    zero = Correspondence.zero(M, M)
    assert split_idempotent(zero).image == Motive.zero()


def test_split_rejects_non_idempotent():
    p = Correspondence.single_twist(0, [[2]])
    with pytest.raises(NotIdempotentError):
        split_idempotent(p)


def random_idempotents(seed: int = 29, count: int = 25):
    """Conjugated coordinate projectors S D S^-1: (rank k, one-twist idempotent)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        # random invertible S over Q via unitriangular factors
        lower = [[Fraction(rng.randint(-2, 2)) if i > j else Fraction(1 if i == j else 0)
                  for j in range(n)] for i in range(n)]
        upper = [[Fraction(rng.randint(-2, 2)) if i < j else Fraction(1 if i == j else 0)
                  for j in range(n)] for i in range(n)]
        S = mat_mul(matrix(lower), matrix(upper))
        Sinv_rows, pivots = rref(tuple(tuple(list(row) + list(ident_row))
                                       for row, ident_row in zip(S, eye(n))))
        assert len(pivots) == n
        Sinv = tuple(tuple(row[n:]) for row in Sinv_rows)
        D = matrix([[1 if (i == j and i < k) else 0 for j in range(n)] for i in range(n)])
        yield k, Correspondence.single_twist(0, mat_mul(mat_mul(S, D), Sinv))


def test_split_random_idempotents():
    # conjugated coordinate projectors are idempotents of known rank
    for k, p in random_idempotents():
        factor = split_idempotent(p)
        assert factor.image.total_unit_multiplicity() == k
        assert compose(factor.inclusion, factor.retraction) == p
        assert compose(factor.retraction, factor.inclusion) == \
            Correspondence.identity(factor.image)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                                           unique=True))
def test_random_idempotents_of_several_twists_split_exactly(seed, twists):
    # one conjugated projector of random rank per twist, as one correspondence
    parts = {t: (k, p.blocks[0]) for t, (k, p) in zip(twists, random_idempotents(seed))}
    M = Motive.of([(UNIT, t, len(b)) for t, (_, b) in parts.items()])
    p = Correspondence(M, M, {t: b for t, (_, b) in parts.items()})
    factor = split_idempotent(p)
    assert compose(factor.inclusion, factor.retraction) == p
    assert compose(factor.retraction, factor.inclusion) == Correspondence.identity(factor.image)
    assert factor.image.unit_multiplicities() == {t: k for t, (k, _) in parts.items() if k}


@st.composite
def composable_triples(draw):
    """x, y, z with x.source == y.target and y.source == z.target, on 1-2 twists
    with multiplicities 0-3 and small rational entries."""
    twists = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True))
    motives = [Motive.of([(UNIT, t, draw(st.integers(0, 3))) for t in twists])
               for _ in range(4)]
    entries = st.fractions(-3, 3, max_denominator=3)
    out = []
    for src, tgt in zip(motives[1:], motives):
        blocks = {}
        for t in twists:
            rows, cols = tgt.unit_multiplicity(t), src.unit_multiplicity(t)
            if rows and cols:
                blocks[t] = matrix(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                                 min_size=rows, max_size=rows)))
        out.append(Correspondence(src, tgt, blocks))
    return out


@settings(max_examples=40)
@given(composable_triples())
def test_compose_is_associative(triple):
    x, y, z = triple
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_splitting_certificate_covers():
    factor = splitting_certificate([0, 0], 2, 1, 2)
    assert factor.image == Motive.point(1)
    # 6 -> 3 cover with fibers of size 2
    f = [0, 0, 1, 1, 2, 2]
    factor = splitting_certificate(f, 6, 3, 2)
    assert factor.image == Motive.point(3)
    pull, push = graph_correspondences(f, 6, 3)
    assert compose(push, pull).block(0) == matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    ident = splitting_certificate([0, 1, 2], 3, 3, 1)
    assert ident.image == Motive.point(3)


def test_splitting_certificate_rejects_unequal_fibers():
    with pytest.raises(NotEquidegreeError):
        splitting_certificate([0, 0, 1], 3, 2, 2)


def test_multi_twist_composition_with_zero_blocks():
    src = Motive.of([(Atom.unit(), 0, 1), (Atom.unit(), 1, 2)])
    mid = Motive.of([(Atom.unit(), 1, 2)])
    x = Correspondence(mid, src, {1: eye(2)})
    y = Correspondence(src, mid, {1: eye(2)})
    xy = compose(x, y)
    assert xy.source == src and xy.target == src
    assert xy.block(0) == matrix([[0]])
    assert xy.block(1) == eye(2)
