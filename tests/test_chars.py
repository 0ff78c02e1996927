"""Character table and representation ring tests.

Oracles: fixed-point counts give permutation characters whose inner products
with table rows must be nonnegative integers; known small tables are frozen
by hand from the defining constraints (degree squares, orthogonality).
"""

from __future__ import annotations

import gc
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import Cyc
from stacky import chars
from stacky.chars import CharacterTable, character_table, rep_ring
from stacky.cyclo import Cyclotomic, _reduce_exponents as reduce_exponents
from stacky.errors import NonIntegralConstantError, NotRationalError
from stacky.perms import (
    ConjugacyClass,
    FiniteGroup,
    Perm,
    alternating_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    generate_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from test_perm_properties import CASES

ALL_GROUPS = [
    ("triv", trivial_group),
    ("C2", lambda: cyclic_group(2)),
    ("C3", lambda: cyclic_group(3)),
    ("C6", lambda: cyclic_group(6)),
    ("C12", lambda: cyclic_group(12)),
    ("V4", lambda: dihedral_group(2)),
    ("S3", lambda: symmetric_group(3)),
    ("D4", lambda: dihedral_group(4)),
    ("D6", lambda: dihedral_group(6)),
    ("Q8", quaternion_group),
    ("A4", lambda: alternating_group(4)),
    ("S4", lambda: symmetric_group(4)),
]


@pytest.mark.parametrize("name,make", ALL_GROUPS)
def test_table_invariants(name, make):
    G = make()
    T = character_table(G)
    assert T.rank == len(T.classes)
    assert sum(d * d for d in T.degrees) == G.order
    assert all(v == 1 for v in T.rows[0])
    # the kept parts give an equal table, and so do its values at conductor exp(G)
    e = G.exponent()
    assert character_table(G) == T == CharacterTable(G, T.classes, tuple(
        tuple(Cyc.of(v).at(e) for v in row) for row in T.rows), T.degrees)
    for i in range(T.rank):
        for j in range(T.rank):
            assert reference_inner_product(T, T.rows[i], T.rows[j]) == (1 if i == j else 0)
    # column orthogonality: sum_i chi_i(c) conj(chi_i(c')) = |G|/|class| * delta
    for a in range(T.rank):
        for b in range(T.rank):
            total = Cyc.of(0)
            for i in range(T.rank):
                total = total + T.rows[i][a] * Cyc.of(T.rows[i][b]).conjugate()
            if a == b:
                assert total == Fraction(G.order, T.classes[a].size)
            else:
                assert total.is_zero()


@pytest.mark.parametrize("name,make", ALL_GROUPS)
def test_natural_permutation_character_decomposes(name, make):
    # oracle: permutation character = fixed point count, always a nonnegative
    # integral combination of the rows containing the trivial character once
    # per orbit (here the natural action)
    G = make()
    T = character_table(G)
    perm_char = [sum(1 for p in range(G.degree) if g(p) == p)
                 for g in (c.representative for c in T.classes)]
    mults = [reference_inner_product(T, perm_char, row) for row in T.rows]
    assert all(m.denominator == 1 and m >= 0 for m in mults)
    # re-expansion is exact
    for ci in range(len(T.classes)):
        acc = Cyc.of(0)
        for m, row in zip(mults, T.rows):
            acc = acc + Cyc.of(row[ci]) * m
        assert acc == Cyclotomic(1, [perm_char[ci]])


def test_s3_degrees():
    T = character_table(symmetric_group(3))
    assert sorted(T.degrees) == [1, 1, 2]
    assert T.rank == 3


def test_c2_rows():
    T = character_table(cyclic_group(2))
    one, minus = Cyclotomic(1, [1]), Cyclotomic(1, [-1])
    assert T.rows[0] == (one, one)
    assert T.rows[1][0] == one and T.rows[1][1] == minus


def test_trivial_group_table():
    T = character_table(trivial_group())
    assert T.rank == 1 and T.rows[0][0] == Cyclotomic(1, [1])


def test_known_degree_patterns():
    assert sorted(character_table(quaternion_group()).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(dihedral_group(4)).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(alternating_group(4)).degrees) == [1, 1, 1, 3]
    assert sorted(character_table(symmetric_group(4)).degrees) == [1, 1, 2, 3, 3]
    assert sorted(character_table(dihedral_group(6)).degrees) == [1, 1, 1, 1, 2, 2]


def test_rep_ring_c2():
    T = character_table(cyclic_group(2))
    R = rep_ring(T)
    # sign (x) sign = trivial
    assert R.constants[1][1][0] == 1
    assert R.constants[1][1][1] == 0


def test_rep_ring_s3_std_square():
    T = character_table(symmetric_group(3))
    R = rep_ring(T)
    std = T.degrees.index(2)
    # std (x) std = triv + sign + std
    expected = [0] * 3
    for k in range(3):
        expected[k] = R.constants[std][std][k]
    assert sorted(expected) == [1, 1, 1]
    assert R.constants[std][std][0] == 1
    assert R.constants[std][std][std] == 1


@pytest.mark.parametrize("name,make", ALL_GROUPS)
def test_rep_ring_axioms(name, make):
    G = make()
    R = rep_ring(character_table(G))
    r = R.rank
    n = R.constants
    for i in range(r):
        for j in range(r):
            # unit row and commutativity
            assert n[0][i][j] == (1 if i == j else 0)
            for k in range(r):
                assert n[i][j][k] == n[j][i][k]
    # associativity as a tensor identity
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(n[i][j][m] * n[m][k][l] for m in range(r))
                    rhs = sum(n[j][k][m] * n[i][m][l] for m in range(r))
                    assert lhs == rhs


def test_rep_ring_rank_matches_class_count():
    for _, make in ALL_GROUPS:
        G = make()
        T = character_table(G)
        assert rep_ring(T).rank == len(T.classes)


def test_deterministic_row_order():
    a = character_table(symmetric_group(4))
    b = character_table(symmetric_group(4))
    e = a.group.exponent()
    keys_a = [tuple(Cyc.of(v).sort_key(e) for v in row) for row in a.rows]
    keys_b = [tuple(Cyc.of(v).sort_key(e) for v in row) for row in b.rows]
    assert keys_a == keys_b
    assert a.degrees == b.degrees


def test_product_group_table_rank_multiplies():
    G = direct_product(cyclic_group(2), symmetric_group(3))
    T = character_table(G)
    assert T.rank == 2 * 3


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction formula it replaced.

def reference_inner_product(T, phi, psi) -> Fraction:
    """(1/|G|) sum over classes of |class| * phi * conj(psi), in the reference
    field oracles.Cyc; NotRationalError if it is not rational."""
    total = sum(Cyc.of(x) * Cyc.of(y).conjugate() * c.size
                for c, x, y in zip(T.classes, phi, psi)) / T.group.order
    if not total.is_rational():
        raise NotRationalError(f"inner product {total} is not rational")
    return total.rational_part()


KERNEL_GROUPS = ALL_GROUPS + [
    ("C24", lambda: cyclic_group(24)),
    ("C2xC6", lambda: direct_product(cyclic_group(2), cyclic_group(6))),
    ("A5", lambda: alternating_group(5)),
]


@pytest.mark.parametrize("name,make", KERNEL_GROUPS)
def test_inner_product_matches_reference_on_rows_and_products(name, make):
    # rep_ring pairs a hand-built table's rows on the integer kernel: n_ijk is
    # <chi_i chi_j, chi_k>, and <chi_j, chi_k> with chi_0 the trivial row
    T = character_table(make())
    n = rep_ring(CharacterTable(T.group, T.classes, T.rows, T.degrees)).constants
    r = T.rank
    for j in range(r):
        for k in range(r):
            assert n[0][j][k] == reference_inner_product(T, T.rows[j], T.rows[k])
    rng = random.Random(name)
    for _ in range(12):
        i, j, k = (rng.randrange(r) for _ in range(3))
        prod = [Cyc.of(x) * y for x, y in zip(T.rows[i], T.rows[j])]
        assert n[i][j][k] == reference_inner_product(T, prod, T.rows[k]) == \
            reference_inner_product(T, T.rows[k], prod)


def _perturbed(T, row: int, cls: int, delta):
    rows = [list(r) for r in T.rows]
    rows[row][cls] = Cyc.of(rows[row][cls]) + delta
    return CharacterTable(T.group, T.classes, tuple(tuple(r) for r in rows), T.degrees)


def test_tampered_table_fails_verification():
    T = character_table(symmetric_group(4))
    chars._verify_table(T)
    with pytest.raises(RuntimeError, match="rows 0,1 fail orthogonality"):
        chars._verify_table(_perturbed(T, 1, 1, 1))
    # an irrational perturbation surfaces as the rows' irrational inner product,
    # rendered at the conductor of the two rows involved
    with pytest.raises(NotRationalError, match=r"^inner product -1/3\*z12\^3 is not rational$"):
        chars._verify_table(_perturbed(T, 2, 3, Cyclotomic.zeta(4)))


def test_tampered_table_fails_rep_ring():
    T = character_table(symmetric_group(4))
    with pytest.raises(NonIntegralConstantError,
                       match=r"constant for \(0,0,1\) is 1/4, not a nonnegative integer"):
        rep_ring(_perturbed(T, 1, 1, 1))
    T = character_table(quaternion_group())
    with pytest.raises(NonIntegralConstantError):
        rep_ring(_perturbed(T, T.rank - 1, 0, -2))


def test_lift_rejects_multiplicities_not_summing_to_degree():
    # in F_5, 2 has order 4; the values (3, 0, 0, 0) of a "degree 3" character
    # on the powers of an order-4 element lift to multiplicity 2 for every
    # eigenvalue: each is at most the degree, but they sum to 8
    with pytest.raises(RuntimeError, match="lifted multiplicities sum to 8, not the degree 3"):
        chars._lift_powers([3, 0, 0, 0], [0, 1, 2, 3], 4, 5, 2, 3)
    # the values of the 1-dimensional character g -> i lift to zeta_4, and at
    # g^j to zeta_4^j, each at the conductor of the order of g^j
    lifted = chars._lift_powers([1, 2, 4, 3], [0, 1, 2, 3], 4, 5, 2, 1)
    assert lifted[1] == Cyclotomic.zeta(4)
    assert lifted == {0: 1, 1: Cyclotomic.zeta(4), 2: -1, 3: Cyclotomic.zeta(4, 3)}
    assert [v.conductor for v in lifted.values()] == [1, 4, 2, 4]


def test_irrational_degree_fails_the_degree_check(monkeypatch):
    # a row whose value at the identity is zeta_3 reaches the named check,
    # not a ValueError from reading the value as rational
    real = chars._abelian_characters
    monkeypatch.setattr(chars, "_abelian_characters", lambda G, classes: [
        (Cyclotomic.zeta(3),) + row[1:] if i == 2 else row
        for i, row in enumerate(real(G, classes))])
    with pytest.raises(RuntimeError,
                       match=r"^internal error: character degree z3 is not a positive integer$"):
        character_table(cyclic_group(3))


def test_a_row_whose_values_lead_with_one_is_not_the_trivial_row(monkeypatch):
    # zeta_6^5 = 1 - zeta_6 has the coefficients (1, -1): a linear row of C6 with
    # that value off the identity is not trivial, so the table finds one trivial
    # row and its pairings fail, not the trivial-character check
    z = Cyclotomic.zeta(6, 5)
    assert z.coeffs == (1, -1)
    real = chars._abelian_characters
    monkeypatch.setattr(chars, "_abelian_characters", lambda G, classes: (
        rows := real(G, classes))[:-1] + [tuple(v if c.order == 1 else z
                                               for v, c in zip(rows[-1], classes))])
    with pytest.raises(NotRationalError, match=r"^inner product 1/6 \+ 5/6\*z6 is not rational$"):
        character_table(cyclic_group(6))


def test_abelian_words_that_miss_an_element_fail_the_self_check(monkeypatch):
    # the reduced generators of V4 are cut to one, so their words reach two
    # of its four elements
    reduce = chars.reduce_generators
    monkeypatch.setattr(chars, "reduce_generators", lambda elems, deg: reduce(elems, deg)[:1])
    with pytest.raises(RuntimeError,
                       match="^internal error: generator words do not reach every element$"):
        character_table(dihedral_group(2))


def test_abelian_value_outside_the_class_roots_fails_the_self_check(monkeypatch):
    # the class of the generator of C4 claims order 2, so the faithful
    # characters' value zeta_4 there is no power of zeta_2
    G = cyclic_group(4)
    classes = tuple(c if c.order != 4 else ConjugacyClass(c.representative, c.members, 2)
                    for c in conjugacy_classes(G))
    monkeypatch.setattr(chars, "conjugacy_classes", lambda _: classes)
    with pytest.raises(RuntimeError,
                       match=r"^internal error: zeta_4\^(1|3) is no power of zeta_2$"):
        character_table(G)


def test_s5_table_forms_no_perm_product_and_one_nullspace_per_eigenspace(monkeypatch):
    # structure constants walk element-index rows; each split takes the
    # characteristic polynomial once and a nullspace only at its roots
    G = symmetric_group(5)
    products, nullspaces, eigenspaces = [], [], []
    mul, nullspace, split = Perm.__mul__, chars._nullspace, chars._split_invariant_subspace
    monkeypatch.setattr(Perm, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(chars, "_nullspace", lambda M, q: nullspaces.append(1) or nullspace(M, q))

    def counting_split(M, B, q):
        spaces = split(M, B, q)
        eigenspaces.extend(spaces)
        return spaces

    monkeypatch.setattr(chars, "_split_invariant_subspace", counting_split)
    T = character_table(G)
    monkeypatch.undo()
    assert T.rank == 7
    assert products == []
    assert 0 < len(nullspaces) == len(eigenspaces)


@pytest.mark.parametrize("name,make,lifts", [("D50", lambda: dihedral_group(50), 84),
                                             ("S6", lambda: symmetric_group(6), 55),
                                             ("D12", lambda: dihedral_group(12), 27)])
def test_one_lift_per_covering_cyclic_subgroup_and_character(monkeypatch, name, make, lifts):
    # the values at the powers of g all come from g's multiplicities, so a
    # character lifts once per class of maximal cyclic subgroups: D50's
    # rotations and its two classes of reflections, 3 x 28 lifts, not 28 x 28
    G = make()
    calls = _count_calls(monkeypatch, chars, ["_lift_powers"])
    T = character_table(G)
    elems = {g.images for g in G.elements}
    assert len(calls) == lifts == T.rank * oracles.maximal_cyclic_class_count(elems)


@pytest.mark.parametrize("name,make", ALL_GROUPS)
def test_table_keeps_its_rows_converted_in_row_order(name, make):
    # the kernel built for sorting, permuted to row order, is the conversion
    # of the finished rows
    T = character_table(make())
    K, fresh = T.kernel, chars._KernelRows(T.rows)
    assert (K.vecs, K.conductors, K.conductor, K.den) == (
        fresh.vecs, fresh.conductors, fresh.conductor, fresh.den)
    # a table built by hand has none, and is converted where it is read
    assert CharacterTable(T.group, T.classes, T.rows, T.degrees).kernel is None


# ---------------------------------------------------------------------------
# Ring constants over F_q against the exact pairing they replaced, and one
# table per group.

def reference_rep_ring(T) -> tuple:
    """The constants by exact pairings on the integer kernel, each checked by the
    pointwise identity, raising exactly as rep_ring does."""
    r, K = T.rank, T.kernel or chars._KernelRows(T.rows)
    sizes = [c.size for c in T.classes]
    e, den, order = K.conductor, K.den, T.group.order
    constants = [[()] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            prod = []
            for x, y in zip(K.vecs[i], K.vecs[j]):
                terms: dict[int, int] = {}
                for a, u in x:
                    for b, w in y:
                        terms[(a + b) % e] = terms.get((a + b) % e, 0) + u * w
                prod.append(tuple(terms.items()))
            coeffs = []
            for k in range(r):
                acc = chars._pairing(sizes, prod, K.vecs[k], e)
                n = chars._rational_value(acc, e, order * den ** 3, math.lcm(
                    K.conductors[i], K.conductors[j], K.conductors[k]))
                if n.denominator != 1 or n < 0:
                    raise NonIntegralConstantError(
                        f"constant for ({i},{j},{k}) is {n}, not a nonnegative integer")
                coeffs.append(int(n))
            for c in range(len(T.classes)):
                diff = list(prod[c])
                for k in range(r):
                    if coeffs[k]:
                        diff.extend((a, -den * coeffs[k] * u) for a, u in K.vecs[k][c])
                if any(reduce_exponents(diff, e)):
                    raise NonIntegralConstantError(
                        f"product of rows {i},{j} does not re-expand on class {c}")
            constants[i][j] = constants[j][i] = tuple(coeffs)
    return tuple(tuple(row) for row in constants)


def ring_outcome(f, T):
    try:
        result = f(T)
    except (NonIntegralConstantError, NotRationalError) as exc:
        return type(exc).__name__, str(exc)
    return "value", getattr(result, "constants", result)


RING_GROUPS = KERNEL_GROUPS + [
    ("D8", lambda: dihedral_group(8)),
    ("D10", lambda: dihedral_group(10)),
    ("C4xC6", lambda: direct_product(cyclic_group(4), cyclic_group(6))),
]


@pytest.mark.parametrize("name,make", RING_GROUPS)
def test_rep_ring_matches_the_exact_pairing(name, make):
    T = character_table(make())
    assert T.kernel is not None  # so rep_ring takes the F_q route
    assert rep_ring(T).constants == reference_rep_ring(T)


def _with_kernel(T):
    # a hand-built table given the kernel that only character_table sets, so
    # that rep_ring takes the F_q route and must fall back pair by pair
    object.__setattr__(T, "kernel", chars._KernelRows(T.rows))
    return T


def test_tampered_tables_raise_as_the_exact_pairing_does():
    tables = {name: character_table(make()) for name, make in (
        ("S4", lambda: symmetric_group(4)), ("Q8", quaternion_group),
        ("A4", lambda: alternating_group(4)), ("D5", lambda: dihedral_group(5)),
        ("C6", lambda: cyclic_group(6)))}
    rng = random.Random("tampered-rings")
    kinds = set()
    for _ in range(30):
        T = tables[rng.choice(sorted(tables))]
        kind = rng.choice(("int", "fraction", "zeta"))
        kinds.add(kind)
        delta = {"int": lambda: rng.choice((-2, -1, 1, 2)),
                 "fraction": lambda: Fraction(rng.choice((-1, 1)), rng.randrange(2, 5)),
                 "zeta": lambda: Cyclotomic.zeta(rng.choice((3, 4, 5, 8)), 1)}[kind]()
        P = _perturbed(T, rng.randrange(T.rank), rng.randrange(T.rank), delta)
        want = ring_outcome(reference_rep_ring, P)
        assert want[0] != "value"
        assert ring_outcome(rep_ring, P) == want
        assert ring_outcome(rep_ring, _with_kernel(P)) == want
    assert kinds == {"int", "fraction", "zeta"}


def _count_calls(monkeypatch, module, names):
    calls = []
    for name in names:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


@pytest.mark.parametrize("name,make", [("S6", lambda: symmetric_group(6)),
                                       ("A5", lambda: alternating_group(5)),
                                       ("C12", lambda: cyclic_group(12))])
def test_rep_ring_on_a_built_table_forms_no_exact_pairing(monkeypatch, name, make):
    # A5 and C12 have irrational values, so zeta_e -> theta is exercised too
    T = character_table(make())
    calls = _count_calls(monkeypatch, chars, ["_pairing"])
    R = rep_ring(T)
    assert calls == []
    assert R.constants == reference_rep_ring(T)


def test_one_group_builds_its_table_once(monkeypatch):
    from stacky.decomp import bh_motive
    from stacky.verify import check_rep_ring_vs_classes
    G = symmetric_group(4)
    calls = _count_calls(monkeypatch, chars, ["_prime_field_characters", "_abelian_characters"])
    T = character_table(G)
    R = rep_ring(T)
    assert bh_motive(G, 0).product_constants == R.constants
    assert check_rep_ring_vs_classes(G).passed
    assert calls == ["_prime_field_characters"]
    # a later call wraps the kept parts in a new, equal table
    again = character_table(G)
    assert again == T and again is not T and again.kernel is T.kernel


def test_a_second_rep_ring_call_recomputes_nothing(monkeypatch):
    # the verified constants are kept with the table's parts, so a second call
    # checks no identity; a hand-built table has no kernel and runs its own path
    G = symmetric_group(4)
    R = rep_ring(character_table(G))
    calls = _count_calls(monkeypatch, chars, ["_first_miss"])
    assert rep_ring(character_table(G)) == R
    assert calls == []
    T = character_table(G)
    assert rep_ring(CharacterTable(G, T.classes, T.rows, T.degrees)).constants == R.constants
    assert calls


def test_kept_table_holds_no_group():
    G = symmetric_group(4)
    character_table(G)
    # walk everything the kept parts reach, short of types and modules
    seen, todo = set(), list(G._table_parts)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, FiniteGroup)
        todo.extend(gc.get_referents(obj))
    assert len(seen) > G.order  # the walk reached the class members


# the seeded generator sets of tests/test_perm_properties.py, kept to groups of
# order at most 120 so that each example stays cheap
PROPERTY_CASES = [case for case in CASES
                  if len(oracles.closure(case[0], case[1])) <= 120]


@st.composite
def relabelled_groups(draw):
    """A seeded generator set, its points relabelled by a drawn permutation."""
    degree, gens = draw(st.sampled_from(PROPERTY_CASES))
    sigma = draw(st.permutations(range(degree)))
    moved = [tuple(sigma[g[sigma.index(x)]] for x in range(degree)) for g in gens]
    return generate_group(degree, [Perm(g) for g in moved])


@settings(max_examples=40)
@given(relabelled_groups())
def test_rep_ring_constants_satisfy_the_ring_axioms(G):
    T = character_table(G)
    n, d = rep_ring(T).constants, T.degrees
    dual = [T.rows.index(tuple(Cyc.of(v).conjugate() for v in row)) for row in T.rows]
    for i in range(T.rank):
        for j in range(T.rank):
            assert all(isinstance(x, int) and x >= 0 for x in n[i][j])
            assert n[i][j][0] == (1 if j == dual[i] else 0)
            assert sum(x * dk for x, dk in zip(n[i][j], d)) == d[i] * d[j]


@settings(max_examples=60)
@given(relabelled_groups())
def test_character_tables_satisfy_orthogonality_and_the_degree_laws(G):
    # Isaacs, ch. 2: sum_C |C| chi_i(C) conj(chi_j(C)) = |G| delta_ij, and
    # sum_i chi_i(C) conj(chi_i(C')) = |G|/|C| delta_CC'; every degree divides
    # |G| and the squares of the degrees sum to |G|
    T = character_table(G)
    zero = Cyc.of(0)
    conj = [[Cyc.of(v).conjugate() for v in row] for row in T.rows]
    for i in range(T.rank):
        for j in range(T.rank):
            total = zero
            for c, a, b in zip(T.classes, T.rows[i], conj[j]):
                total = total + a * b * c.size
            assert total == (G.order if i == j else 0)
    for a in range(T.rank):
        for b in range(T.rank):
            total = zero
            for row, crow in zip(T.rows, conj):
                total = total + row[a] * crow[b]
            assert total == (Fraction(G.order, T.classes[a].size) if a == b else 0)
    assert all(G.order % d == 0 for d in T.degrees)
    assert sum(d * d for d in T.degrees) == G.order
