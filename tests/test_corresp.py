"""Correspondence calculus tests: composition, graphs, idempotent splitting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stacky.corresp as corresp
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
    InternalError,
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


def cover_shapes(max_points: int = 12) -> list[tuple[list[int], int, int, int]]:
    """(f, n, k, m) for every cover that standard_splitting_reports(max_points) visits."""
    return [([j for j in range(k) for _ in range(m)], k * m, k, m)
            for k in range(1, max_points + 1) for m in range(1, max_points // k + 1)]


def averaged(push: Correspondence, m: int) -> Correspondence:
    """(1/m) * push in the Fraction calculus."""
    return Correspondence(push.source, push.target, {
        t: tuple(tuple(x / m for x in row) for row in b) for t, b in push.blocks.items()})


def fraction_verdict(pull: Correspondence, push: Correspondence, m: int) -> str | None:
    """The certificate's identities in the Fraction calculus: the name of the
    first check that fails, or None when both hold."""
    retraction = averaged(push, m)
    if compose(retraction, pull) != Correspondence.identity(pull.source):
        return "corresp.left_inverse"
    if not is_idempotent(compose(pull, retraction)):
        return "corresp.cover_idempotent"
    return None


@pytest.mark.parametrize(("f", "n", "k", "m"), cover_shapes())
def test_splitting_certificate_agrees_with_the_fraction_calculus(f, n, k, m):
    factor = splitting_certificate(f, n, k, m)
    pull, push = graph_correspondences(f, n, k)
    assert fraction_verdict(pull, push, m) is None
    assert factor.image == pull.source and factor.inclusion == pull
    assert factor.retraction == averaged(push, m)
    assert compose(factor.retraction, pull) == Correspondence.identity(pull.source)
    assert is_idempotent(compose(pull, factor.retraction))


def moved_entry(b: list[list[Fraction]]) -> list[list[Fraction]]:
    # the first point's 1 moves to the next target's row
    j = next(i for i, row in enumerate(b) if row[0])
    b[j][0], b[(j + 1) % len(b)][0] = Fraction(0), Fraction(1)
    return b


def half_entry(b: list[list[Fraction]]) -> list[list[Fraction]]:
    # a 0 made 1/2, which truncation would read as 0 again; on one target,
    # where there is no 0, the first point's 1
    j = next((i for i, row in enumerate(b) if not row[0]), 0)
    b[j][0] = Fraction(1, 2)
    return b


# each maps the blocks of (pull, push) to those handed to the certificate;
# the first two still split the cover, the others are wrong pushforwards
TAMPERS = {
    "unchanged": lambda a, b: (a, b),
    "pull_halved_push_doubled": lambda a, b: ([[x / 2 for x in row] for row in a],
                                              [[2 * x for x in row] for row in b]),
    "push_doubled": lambda a, b: (a, [[2 * x for x in row] for row in b]),
    "push_entry_moved": lambda a, b: (a, moved_entry(b)),
    "push_entry_half": lambda a, b: (a, half_entry(b)),
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_splitting_certificate_fails_exactly_when_the_fraction_identities_do(monkeypatch, tamper):
    for f, n, k, m in cover_shapes():
        if tamper == "push_entry_moved" and k == 1:
            continue  # one target: no other row to move an entry to
        pull, push = graph_correspondences(f, n, k)
        a, b = TAMPERS[tamper]([list(row) for row in pull.block(0)],
                               [list(row) for row in push.block(0)])
        pull = Correspondence(pull.source, pull.target, {0: matrix(a)})
        push = Correspondence(push.source, push.target, {0: matrix(b)})
        monkeypatch.setattr(corresp, "graph_correspondences", lambda *args: (pull, push))
        expected = fraction_verdict(pull, push, m)
        assert (expected is None) == (tamper in ("unchanged", "pull_halved_push_doubled"))
        if expected is None:
            factor = splitting_certificate(f, n, k, m)
            assert (factor.inclusion, factor.retraction) == (pull, averaged(push, m)), (tamper, f)
            continue
        with pytest.raises(InternalError) as failure:
            splitting_certificate(f, n, k, m)
        assert failure.value.name == expected, (tamper, f)


def test_multi_twist_composition_with_zero_blocks():
    src = Motive.of([(Atom.unit(), 0, 1), (Atom.unit(), 1, 2)])
    mid = Motive.of([(Atom.unit(), 1, 2)])
    x = Correspondence(mid, src, {1: eye(2)})
    y = Correspondence(src, mid, {1: eye(2)})
    xy = compose(x, y)
    assert xy.source == src and xy.target == src
    assert xy.block(0) == matrix([[0]])
    assert xy.block(1) == eye(2)
