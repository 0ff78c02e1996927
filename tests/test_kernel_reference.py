"""Tabulated orbit counting and integer matrix products against the old kernels.

``orbit_count`` tabulates one image row per element and counts orbits on the
rows; the internal callers (``decomp._component_ranks``,
``decomp.inertia_ranks_by_twist``, ``decomp._bh_rank`` and
``motives.invariants``) build the rows themselves.  ``mat_mul`` multiplies
integer numerators over a common denominator.  The references below are the
kernels as they were before: ``orbit_count`` calling the action per
(element, point) inside its checks and search, the callers' per-point
closures with a ``tuple.index`` character action, and ``mat_mul`` summing
``Fraction`` products.  Results must be equal; a tampered action must raise
the reference's exception type, and the same message where it has a single
defect.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from stacky.corresp import mat_mul
from stacky.decomp import (
    _bh_rank,
    _component_ranks,
    cyclotomic_inertia,
    inertia,
    inertia_ranks_by_twist,
    injective_characters,
)
from stacky.errors import NotAnActionError, ShapeMismatchError
from stacky.motives import EquivariantModel, invariants, model_motive
from stacky.perms import (
    Perm,
    conjugacy_classes,
    cyclic_group,
    cyclic_subgroup_classes,
    generate_group,
    orbit_count,
    symmetric_group,
)
from stacky.verify import random_coset_model
from test_perm_properties import CASES


def reference_orbit_count(elements, action, points: int) -> int:
    if points == 0:
        return 0
    elems = list(elements)
    elem_set = set(elems)
    ident = Perm.identity(elems[0].degree)
    if ident in elem_set:
        for pt in range(points):
            if action(ident, pt) != pt:
                raise NotAnActionError(f"identity moves point {pt}")
    sample = elems[:6]
    for a in sample:
        for b in sample:
            ab = a * b
            if ab in elem_set:
                for pt in range(min(points, 6)):
                    if action(ab, pt) != action(a, action(b, pt)):
                        raise NotAnActionError(
                            f"action violates (a*b)(x) = a(b(x)) at point {pt}")

    seen = [False] * points
    orbits = 0
    for start in range(points):
        if seen[start]:
            continue
        orbits += 1
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            for g in elems:
                y = action(g, x)
                if not 0 <= y < points:
                    raise NotAnActionError(f"action maps point {x} out of range")
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)

    fixed_total = sum(sum(1 for pt in range(points) if action(g, pt) == pt) for g in elems)
    if fixed_total % len(elems) != 0 or fixed_total // len(elems) != orbits:
        raise RuntimeError(
            f"internal error: Burnside average {fixed_total}/{len(elems)} "
            f"disagrees with orbit count {orbits}")
    return orbits


def reference_char_act(chars):
    def act(n: Perm, pos: int) -> int:
        m = chars.cyclic.order
        if m == 1:
            return 0
        j = chars.indices[pos] * chars.exponents[n] % m
        return chars.indices.index(j)
    return act


def reference_component_ranks(comp) -> dict[int, int]:
    model = comp.fixed_model
    k = comp.chars.size
    act_char = reference_char_act(comp.chars)
    out = {}
    for d, cells in sorted(model.cells_of_dim().items()):
        pos = {cell: i for i, cell in enumerate(cells)}

        def action(n, pair, cells=cells, pos=pos):
            cell_pos, char_pos = divmod(pair, k)
            return pos[model.action_of(n)(cells[cell_pos])] * k + act_char(n, char_pos)

        out[d] = reference_orbit_count(model.group.elements, action, len(cells) * k)
    return out


def reference_inertia_ranks(X, p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for comp in inertia(X, p):
        model = comp.fixed_model
        for d, cells in model.cells_of_dim().items():
            pos = {cell: i for i, cell in enumerate(cells)}

            def action(z, q, cells=cells, pos=pos):
                return pos[model.action_of(z)(cells[q])]

            out[d] = out.get(d, 0) + reference_orbit_count(model.group.elements, action,
                                                           len(cells))
    return {d: r for d, r in out.items() if r}


def reference_invariant_counts(act) -> list[int]:
    idx = act.group.index
    return [reference_orbit_count(act.group.elements, lambda g, p: perms[idx[g]](p), mult)
            for (_, _, mult), perms in zip(act.motive.terms, act.slot_actions)]


def reference_mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(len(b[0]) if b else 0))
                 for i in range(len(a)))


# ---------------------------------------------------------------------------
# Orbit counts on the seeded generator sets.

def _models(index: int, degree: int, gens):
    G = generate_group(degree, [Perm(g) for g in gens])
    yield EquivariantModel.hset(G, degree, G.generators)
    # building coset models of S6-sized groups takes seconds; points suffice there
    if G.order <= 120:
        yield random_coset_model(random.Random(index), G, max_points=12)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_orbit_counts_match_the_reference(index):
    degree, gens = CASES[index]
    for X in _models(index, degree, gens):
        G = X.group

        def act(g, p):
            return X.action_of(g)(p)

        assert orbit_count(G.elements, act, X.size) == reference_orbit_count(G.elements, act,
                                                                               X.size)
        motive = model_motive(X)
        assert [m for _, _, m in invariants(motive).terms] == reference_invariant_counts(motive)
        for p in (0, 2, 3):
            for comp in cyclotomic_inertia(X, p):
                assert _component_ranks(comp) == reference_component_ranks(comp)
            assert inertia_ranks_by_twist(X, p) == reference_inertia_ranks(X, p)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_character_actions_match_the_reference(index):
    degree, gens = CASES[index]
    G = generate_group(degree, [Perm(g) for g in gens])
    for p in (0, 2, 3):
        via_chars = 0
        for c in cyclic_subgroup_classes(G, p):
            chars = injective_characters(c)
            ref = reference_char_act(chars)
            elems = c.normalizer.elements
            assert all(chars.act(n, i) == ref(n, i) for n in elems for i in range(chars.size))
            count = reference_orbit_count(elems, ref, chars.size)
            assert orbit_count(elems, chars.act, chars.size) == count
            via_chars += count
        assert _bh_rank(G, p) == via_chars == sum(
            1 for cls in conjugacy_classes(G) if p == 0 or cls.order % p != 0)


# ---------------------------------------------------------------------------
# Tampered actions.

def _table_action(G, table):
    idx = G.index
    return lambda g, p: table[idx[g]][p]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotAnActionError, RuntimeError) as exc:
        return type(exc), str(exc)


def _points_table(G):
    return [list(g.images) for g in G.elements]


def test_identity_moving_a_point():
    G = symmetric_group(3)
    table = _points_table(G)
    table[G.index[G.identity]][:2] = [1, 0]
    act = _table_action(G, table)
    got = _outcome(orbit_count, G.elements, act, 3)
    assert got == _outcome(reference_orbit_count, G.elements, act, 3)
    assert got == (NotAnActionError, "identity moves point 0")


def test_sampled_axiom_violation():
    G = symmetric_group(3)
    table = _points_table(G)
    table[1] = [2, 0, 1] if table[1] != [2, 0, 1] else [1, 2, 0]
    act = _table_action(G, table)
    got = _outcome(orbit_count, G.elements, act, 3)
    assert got == _outcome(reference_orbit_count, G.elements, act, 3)
    assert got[0] is NotAnActionError and got[1].startswith("action violates")


@pytest.mark.parametrize("value", [-1, -3, 8, 11])
def test_out_of_range_value_outside_the_sample(value):
    # C8 on itself: the last element's row at point 7 is read by no sampled
    # axiom check, so the reference meets it in its search
    G = cyclic_group(8)
    table = _points_table(G)
    table[7][7] = value
    act = _table_action(G, table)
    got = _outcome(orbit_count, G.elements, act, 8)
    assert got == _outcome(reference_orbit_count, G.elements, act, 8)
    assert got == (NotAnActionError, "action maps point 7 out of range")


def test_negative_value_inside_the_sample_is_caught_before_it_indexes():
    # the reference reads -1 as an index, wraps round and reports an axiom
    # violation; the range check runs first and names the value
    G = symmetric_group(3)
    table = _points_table(G)
    table[1][0] = -1
    act = _table_action(G, table)
    ref_type, _ = _outcome(reference_orbit_count, G.elements, act, 3)
    got = _outcome(orbit_count, G.elements, act, 3)
    assert got == (ref_type, "action maps point 0 out of range")


def test_partial_element_list_fails_the_burnside_check():
    G = symmetric_group(3)
    act = _table_action(G, _points_table(G))
    outcomes = []
    for drop in range(1, G.order):
        elems = G.elements[:drop] + G.elements[drop + 1:]
        got = _outcome(orbit_count, elems, act, 3)
        assert got == _outcome(reference_orbit_count, elems, act, 3)
        outcomes.append(got)
    # without a transposition the fixed points still average to one orbit;
    # without a 3-cycle they do not
    assert outcomes.count(1) == 3
    assert outcomes.count((RuntimeError, "internal error: Burnside average 6/5 "
                                         "disagrees with orbit count 1")) == 2


# ---------------------------------------------------------------------------
# Matrix products.

def _random_matrix(rng: random.Random, n: int, k: int):
    return tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k))
                 for _ in range(n))


def test_mat_mul_matches_the_fraction_sum():
    rng = random.Random(41)
    for _ in range(200):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = _random_matrix(rng, n, k), _random_matrix(rng, k, m)
        got = mat_mul(a, b)
        assert got == reference_mat_mul(a, b)
        assert all(type(x) is Fraction for row in got for x in row)
    # 0 x k and k x 0 factors
    b = _random_matrix(rng, 2, 3)
    assert mat_mul((), b) == reference_mat_mul((), b) == ()
    assert mat_mul(((),) * 3, ()) == ((),) * 3
    assert mat_mul(_random_matrix(rng, 2, 3), ((),) * 3) == ((), ())
    # denominators whose common multiple is large stay exact
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    a = (tuple(Fraction(1, q) for q in primes),)
    b = tuple((Fraction(q, math.prod(primes)),) for q in primes)
    assert mat_mul(a, b) == reference_mat_mul(a, b) == ((Fraction(10, math.prod(primes)),),)


def test_mat_mul_shape_error_text():
    rng = random.Random(43)
    a, b = _random_matrix(rng, 2, 3), _random_matrix(rng, 2, 2)
    with pytest.raises(ShapeMismatchError) as ours:
        mat_mul(a, b)
    with pytest.raises(ShapeMismatchError) as ref:
        reference_mat_mul(a, b)
    assert str(ours.value) == str(ref.value) == "cannot multiply 2x3 by 2x2"
