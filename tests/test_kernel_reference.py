"""Tabulated orbit counting, integer matrix products and index-based classes
against the old kernels.

Orbits are counted on tabulated image rows, one per element; the caller
(``decomp._orbit_ranks`` for the coarse, the refined and the element-indexed
ranks) hands over rows checked where they were built.
``mat_mul`` multiplies integer numerators over a common denominator.
Conjugacy classes and cyclic subgroup classes close element indices under one
conjugation row per generator, call ``powers`` once per cyclic subgroup and
take normalizers without the subgroup check; conjugation exponents are
discrete logs of image tuples.  The references below are the kernels as they
were before: an orbit count calling the action per (element, point) inside
its search, the callers' per-point closures with a ``tuple.index`` character
action, ``mat_mul`` summing ``Fraction`` products, and the classes, exponents,
centralizers and canonical conjugates formed from ``Perm`` products, and
``gerbe_rset`` moving (cyclic subgroup, character) pairs by ``Perm``
conjugation with discrete logs by ``tuple.index``, its automorphisms checked
for multiplicativity at every pair of elements.  Results must be equal; a
tampered action must raise the reference's exception type, and the same
message where it has a single defect.  The coarse quotient motive is checked
against its definition, ``oracles.quotient_ranks``.

``extend_action`` now forms one image-tuple product per element and
generator, in discovery order, which defines the action on the word-tree edge
and is checked everywhere else; the conjugation exponents are walked down the
word tree through inverse conjugation rows, and a point model's fixed loci are
built once per class from image tuples.  Their references are the ``Perm``
routes they replace: a full word replay per element checked by ``Perm``
products, one ``_conjugate`` per element per class, and the loci rebuilt
through the validating constructor.

Generation keeps the closure's products as the right-multiplication rows, the
conjugation rows are four lookups per element in a right row and the inverse
row, and a cyclic class holds its exponents as one row over the element
indices, 0 outside its normalizer, whose indices it keeps.  Their references
are the products those replace: e_i s by ``_compose``, s^-1 e_i s by two
products per element, one ``_conjugate`` per element for the exponents and the
normalizer scan.

Group generation, ``powers`` and ``reduce_generators`` close image tuples
and wrap each element once, and ``centralizer`` walks the word tree through
the conjugation rows (i -> index of s^-1 e_i s).  Their references are the
``Perm`` routes they replace: the closures and the powers by ``Perm``
products, and one ``_conjugate`` per element for the centralizer.

``quaternion_group`` writes its two generators in cycle form.  Its reference
is the construction from Q8's multiplication table.

Character tables count the class-algebra structure constants on element
indices, one row i -> index of z e_i per class representative z walked down
the word tree, and split each invariant subspace at the roots of one
characteristic polynomial.  Their references are the count by ``Perm``
inverses and products per element and class, and the split that takes a
nullspace at every lambda in F_q.

The table kernel keeps each class-sum matrix mod q as sparse rows of nonzero
(column, value) pairs, and lifts the values once per covering cyclic
subgroup: the classes of all powers g^j from g's eigenvalue multiplicities.
Their references are the dense matrices of ``_class_sum_matrices`` reduced
mod q, and the lift it replaces, one inverse DFT at every class's own
representative (``oracles.per_class_lift``); ``reference_split`` densifies the
sparse rows it is given.

A cyclic subgroup finds its class by lookup in the map each group keeps next
to its cyclic classes; the reference is its least conjugate, closed under
``Perm`` conjugation.  Actions on cells and automorphisms are rows aligned
with the group's elements; the references' ``Perm``-keyed dicts are read as
rows before they are compared.

``_orbit_ranks`` counts each dimension's orbits on the model's own rows, on
the cells of that dimension, walked in place, of the model's group or of a
centralizer C at its positions among the rows.  The refined route counts
r = phi(m) / [N : C] times the C-orbits on each class's fixed cells, with C and
r from ``decomp.conjugation_kernel``; the BH rank sums the r.  Their reference
is the definitional count they replace, on pairs (cell, character position):
the rows restricted to the dimension's cells, each by ``tuple.index``, then one
row per normalizer element on the points i*k + j of the pairs, from reference
exponents, their orbits found by the flood fill ``oracles.orbits``; C and r are
read off ``reference_exponents`` and that pair count on the characters alone.
``_count_orbits`` builds one column per counted cell,
counted through the getters it makes, and marks one image set seen per orbit;
on the generators' route it reads no row.  A point
model's fixed locus is the model's own rows on the points its class fixes; the
reference restricts them to those points, one ``tuple.index`` per point.

``direct_product`` reads the product's tables off the factors' by index
arithmetic, element i*|H| + j being (g_i, h_j): its right and conjugation rows,
its cyclic subgroups from each factor element's own powers, and its words from a
closure on element indices; ``product_with_point_model`` repeats X's checked
rows |H| times.  Their references are ``generate_group`` on the product's
generators, closing image tuples, with its lazily built tables, and
``extend_action`` on the product group.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

import oracles
import stacky.chars
import stacky.perms
from stacky.chars import (
    _charpoly,
    _class_sum_matrices,
    _coords_in_basis,
    _nullspace,
    _row_reduce,
    _split_invariant_subspace,
    character_table,
)
from stacky.corresp import mat_mul
from stacky.decomp import (
    CharacterOrbitSet,
    _automorphism_map,
    _bh_rank,
    _orbit_ranks,
    character_indices,
    conjugation_kernel,
    cyclotomic_inertia,
    gerbe_rset,
    inertia,
    inertia_ranks_by_twist,
    inertial_quotient_motive,
    product_with_point_model,
    quotient_motive,
)
from stacky.errors import (
    GroupTooLargeError,
    InconsistentActionError,
    InternalError,
    NonBijectionError,
    NotAnAutomorphismError,
    NotInNormalizerError,
    ShapeMismatchError,
    ValidationError,
)
from stacky.motives import EquivariantModel, FixedLocus, extend_action
from stacky.perms import (
    ConjugacyClass,
    CyclicClass,
    Perm,
    Subgroup,
    _compose,
    _count_orbits,
    alternating_group,
    centralizer,
    conjugacy_classes,
    cyclic_group,
    cyclic_subgroup_classes,
    dihedral_group,
    direct_product,
    generate_group,
    orbit,
    powers,
    quaternion_group,
    reduce_generators,
    symmetric_group,
)
from stacky.cli import load_document
from stacky.verify import random_coset_model, suite_inputs
from test_chars import relabelled_groups
from test_inertia_reference import CELL_DOCS, SMALL, _group
from test_perm_properties import CASES


def reference_orbit_count(elements, action, points: int) -> int:
    if points == 0:
        return 0
    elems = list(elements)
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
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)

    fixed_total = sum(sum(1 for pt in range(points) if action(g, pt) == pt) for g in elems)
    if fixed_total % len(elems) != 0 or fixed_total // len(elems) != orbits:
        raise InternalError(
            "perms.burnside",
            f"Burnside average {fixed_total}/{len(elems)} disagrees with orbit count {orbits}")
    return orbits


def reference_character_rows(c):
    """Per normalizer element n, in order, the row j -> j*a mod m over the
    positions of the injective character indices, a from reference exponents."""
    indices = character_indices(c.order)
    return tuple(tuple(indices.index(j * reference_conjugation_exponent(n, c) % c.order)
                       for j in indices) for n in c.normalizer.elements)


def reference_char_act(c):
    rows = dict(zip(c.normalizer.elements, reference_character_rows(c)))
    return lambda n, pos: rows[n][pos]


def reference_kernel(G, c):
    """The positions in N of the elements with reference exponent 1, and the
    orbits of N on the injective characters, by reference_orbit_count."""
    C = tuple(k for k, a in enumerate(reference_exponents(G, c).values()) if a == 1)
    k = len(character_indices(c.order))
    return C, reference_orbit_count(c.normalizer.elements, reference_char_act(c), k)


def reference_component_ranks(comp) -> dict[int, int]:
    model = comp.fixed_model
    k = len(character_indices(comp.cyclic.order))
    act_char = reference_char_act(comp.cyclic)
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


def reference_mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(len(b[0]) if b else 0))
                 for i in range(len(a)))


def _conjugators(G):
    return [(g, g.inverse()) for g in G.generators]


def _conjugate_set(s, pair):
    g, ginv = pair
    return frozenset(g * x * ginv for x in s)


def _subgroup_key(s):
    return tuple(x.images for x in sorted(s))


def reference_canonical_conjugate(G, sub):
    return min(orbit([frozenset(sub)], _conjugators(G), _conjugate_set), key=_subgroup_key)


def reference_conjugacy_classes(G):
    conj = _conjugators(G)
    seen = set()
    classes = []
    for seed in G.elements:
        if seed in seen:
            continue
        members = tuple(sorted(orbit([seed], conj, lambda x, c: c[0] * x * c[1])))
        classes.append(ConjugacyClass(seed, members, seed.order()))
        seen.update(members)
    classes.sort(key=lambda c: (c.order, c.representative.images))
    return tuple(classes)


def _conjugate(g, x):
    """The image tuple of g x g^-1, from those of g and x: (g x g^-1)(g(p)) = g(x(p))."""
    out = [0] * len(g)
    for p, q in zip(g, map(g.__getitem__, x)):
        out[p] = q
    return tuple(out)


def reference_normalizer(G, c):
    """All g that conjugate the generators of the subgroup c into it, one
    _conjugate per element and generator; c must be a subgroup of G, as the
    oracles' closure of its generators checks."""
    elems = sorted(set(c))
    cset = frozenset(x.images for x in elems)
    gens = [x.images for x in reduce_generators(elems, G.degree)]
    assert all(x in G for x in elems) and oracles.closure(G.degree, gens) == cset
    return Subgroup(G.degree, tuple(g for g in G.elements
                                    if all(_conjugate(g.images, x) in cset for x in gens)))


def reference_cyclic_subgroup_classes(G, p):
    """(generator, order, powers, normalizer elements) per class."""
    conj = _conjugators(G)
    seen = set()
    classes = []
    for canon in sorted({frozenset(powers(g)) for g in G.elements}, key=_subgroup_key):
        if canon in seen:
            continue
        seen.update(orbit([canon], conj, _conjugate_set))
        m = len(canon)
        gen = min(x for x in canon if x.order() == m)
        classes.append((gen, m, powers(gen), reference_normalizer(G, canon).elements))
    classes.sort(key=lambda c: (c[1], c[0].images))
    return [c for c in classes if p == 0 or c[1] % p != 0]


def reference_conjugation_exponent(n, c):
    if c.order == 1:
        return 1
    if n not in c.normalizer:
        raise NotInNormalizerError(f"{n.cycle_string()} does not normalize the subgroup")
    h = n.inverse() * c.generator * n
    try:
        a = c.subgroup_elements.index(h)
    except ValueError:
        raise ValueError("element is not in the cyclic subgroup") from None
    if math.gcd(a, c.order) != 1:
        raise NotInNormalizerError("conjugation did not map the generator to a generator")
    return a


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

        assert _count_orbits(X.element_actions) == reference_orbit_count(G.elements, act, X.size)
        coarse = quotient_motive(X)
        assert {t: m for _, t, m in coarse.terms} == oracles.quotient_ranks(X)
        for p in (0, 2, 3):
            for cc in inertial_quotient_motive(X, p).components:
                assert dict(cc.ranks) == reference_component_ranks(cc.component)
            assert inertia_ranks_by_twist(X, p) == reference_inertia_ranks(X, p)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_character_actions_match_the_reference(index):
    degree, gens = CASES[index]
    G = generate_group(degree, [Perm(g) for g in gens])
    for p in (0, 2, 3):
        classes = cyclic_subgroup_classes(G, p)
        kernels = [conjugation_kernel(c, G) for c in classes]
        assert [(tuple(C), r) for C, r in kernels] == [reference_kernel(G, c) for c in classes]
        assert _bh_rank(G, p) == sum(r for _, r in kernels) == sum(
            1 for cls in conjugacy_classes(G) if p == 0 or cls.order % p != 0)


# ---------------------------------------------------------------------------
# Conjugacy classes, cyclic subgroup classes and conjugation exponents.

NAMED_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "S5": lambda: symmetric_group(5),
    "S6": lambda: symmetric_group(6),
    "A5": lambda: alternating_group(5),
    "D6": lambda: dihedral_group(6),
    "Q8": quaternion_group,
    "C12": lambda: cyclic_group(12),
}


def reference_exponents(G, c):
    """One _conjugate of the canonical generator per element: n g n^-1 = g^k
    puts n in the normalizer with a = k^-1 mod m."""
    pw, m = c.subgroup_elements, c.order
    if m == 1:
        return dict.fromkeys(G.elements, 1)
    a_of = {pw[k].images: pow(k, -1, m) for k in range(1, m) if math.gcd(k, m) == 1}
    return {n: a_of[x] for n in G.elements
            if (x := _conjugate(n.images, c.generator.images)) in a_of}


def assert_classes_match_the_reference(G):
    """G is freshly generated, so nothing is cached before the first call."""
    for c in cyclic_subgroup_classes(G, 0):
        # equal in content and in order: the row holds a on the normalizer, 0 elsewhere
        ref = reference_exponents(G, c)
        assert c.exponent_row == tuple(ref.get(g, 0) for g in G.elements)
        assert tuple(map(G.elements.__getitem__, c.normalizer_indices)) == tuple(ref)
    for p in (0, 2, 3):
        classes = cyclic_subgroup_classes(G, p)
        ref = reference_cyclic_subgroup_classes(G, p)
        assert [(c.generator, c.order, c.subgroup_elements, c.normalizer.elements)
                for c in classes] == ref
        for c in classes:
            C, r = conjugation_kernel(c, G)
            assert (tuple(C), r) == reference_kernel(G, c)
    classes = conjugacy_classes(G)
    assert classes == reference_conjugacy_classes(G)
    for cls in classes:
        h = cls.representative
        assert centralizer(G, h).elements == tuple(g for g in G.elements if g * h == h * g)
    for c in cyclic_subgroup_classes(G, 0):
        for g in G.elements[:8]:
            conj = [g * x * g.inverse() for x in c.subgroup_elements]
            # the conjugated generator's subgroup finds its class by lookup
            found = G._cyclic_classes[1][G._cyclic_subgroups[G.index[conj[1 % c.order]]]]
            assert found is c
            assert frozenset(found.subgroup_elements) == reference_canonical_conjugate(G, conj)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_classes_match_the_reference_on_seeded_groups(index):
    degree, gens = CASES[index]
    assert_classes_match_the_reference(generate_group(degree, [Perm(g) for g in gens]))


@pytest.mark.parametrize("name", NAMED_GROUPS)
def test_classes_match_the_reference_on_named_groups(name):
    assert_classes_match_the_reference(NAMED_GROUPS[name]())


def reference_right_rows(G):
    """Per generator s, i -> index of e_i s, each product formed by _compose."""
    return tuple(tuple(G._by_images[_compose(e.images, s.images)] for e in G.elements)
                 for s in G.generators)


def reference_conjugation_rows(G):
    """Per generator s, i -> index of s^-1 e_i s by two products per element."""
    return tuple(tuple(G._by_images[_compose(t, _compose(e.images, s))] for e in G.elements)
                 for s, t in ((g.images, g.inverse().images) for g in G.generators))


def assert_index_rows_match_the_reference(G):
    """The rows recorded at generation, the conjugation rows by lookup, and each
    class's exponent row and normalizer indices."""
    assert G._right_rows == reference_right_rows(G)
    assert G._conjugation_rows == reference_conjugation_rows(G)
    for c in cyclic_subgroup_classes(G, 0):
        ref = reference_exponents(G, c)
        assert c.exponent_row == tuple(ref.get(g, 0) for g in G.elements)
        N = reference_normalizer(G, c.subgroup_elements).elements
        assert tuple(map(G.elements.__getitem__, c.normalizer_indices)) == N
        assert c.normalizer.elements == N


@pytest.mark.parametrize("name", NAMED_GROUPS)
def test_index_rows_match_the_reference_on_named_groups(name):
    assert_index_rows_match_the_reference(NAMED_GROUPS[name]())


@settings(max_examples=40)
@given(relabelled_groups())
def test_index_rows_match_the_reference_on_random_groups(G):
    assert_index_rows_match_the_reference(G)


def _cyclic_class(G, order):
    return next(c for c in cyclic_subgroup_classes(G, 0) if c.order == order)


def test_non_normalizing_element_in_a_tampered_normalizer():
    # the reference's tuple.index leaked a ValueError here; the element does
    # not normalize the subgroup, and that is what is raised now
    G = symmetric_group(3)
    c = _cyclic_class(G, 2)
    c = CyclicClass(c.generator, c.order, c.subgroup_elements, tuple(range(G.order)),
                    c.exponent_row, G.elements)
    with pytest.raises(NotInNormalizerError, match="does not normalize the subgroup"):
        conjugation_kernel(c, G)
    with pytest.raises(ValueError, match="element is not in the cyclic subgroup"):
        {n: reference_conjugation_exponent(n, c) for n in c.normalizer.elements}


def test_non_unit_discrete_log_fails_the_gcd_check():
    # conjugates have the generator's order, so only a tampered exponent
    # table can send the generator to a non-generator
    G = cyclic_group(4)
    c = _cyclic_class(G, 4)
    object.__setattr__(c, "exponent_row", tuple(2 if a else 0 for a in c.exponent_row))
    with pytest.raises(NotInNormalizerError, match="did not map the generator to a generator"):
        conjugation_kernel(c, G)


# ---------------------------------------------------------------------------
# Orbit counts on partial element lists.

def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return type(exc), str(exc)


def test_partial_element_list_fails_the_burnside_check():
    G = symmetric_group(3)
    outcomes = []
    for drop in range(1, G.order):
        elems = G.elements[:drop] + G.elements[drop + 1:]
        assert len(oracles.orbits(elems, lambda g, p: g(p), 3)) == 1
        got = _outcome(_count_orbits, [g.images for g in elems])
        assert got == _outcome(reference_orbit_count, elems, lambda g, p: g(p), 3)
        outcomes.append(got)
    # without a transposition the fixed points still average to one orbit;
    # without a 3-cycle they do not
    assert outcomes.count(1) == 3
    assert outcomes.count((InternalError, "internal error: Burnside average 6/5 "
                                          "disagrees with orbit count 1")) == 2


# ---------------------------------------------------------------------------
# Orbit counts on the model's own rows.

def reference_orbit_ranks(model, chars=None) -> dict[int, int]:
    """Per dimension, the rows restricted to its cells and, given character
    rows, one row per element on the points i*k + j of the pairs (cell
    position i, character position j), counted."""
    out = {}
    for d, cells in model.cells_of_dim().items():
        rows = reference_restrict_rows(model.element_actions, cells)
        if chars is not None:
            k = len(chars[0])
            rows = [[i * k + j for i in row for j in crow] for row, crow in zip(rows, chars)]
        out[d] = len(oracles.orbits(rows, lambda row, x: row[x], len(rows[0])))
    return out


def pairs_model(n: int) -> EquivariantModel:
    """S_n on the 2-subsets of its points."""
    G = symmetric_group(n)
    pairs = list(itertools.combinations(range(n), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    return EquivariantModel.hset(G, len(pairs), [
        Perm([pos[tuple(sorted(map(g, p)))] for p in pairs]) for g in G.generators])


def refined_ranks(X, comp) -> dict[int, int]:
    """A cyclotomic component's ranks as the refined route counts them: r times
    the orbits of the centralizer, at its positions, on the fixed cells."""
    C, r = conjugation_kernel(comp.cyclic, X.group)
    return {d: r * n for d, n in _orbit_ranks(comp.fixed_model, X, C).items()}


def assert_orbit_ranks_match_the_reference(X) -> None:
    # on the model's own rows, and as the inertia routes count (a central class
    # on the parent's generators and stab); the refined ranks against the pair count
    assert _orbit_ranks(X) == reference_orbit_ranks(X)
    for p in (0, 2, 3):
        for comp in cyclotomic_inertia(X, p):
            want = reference_orbit_ranks(comp.fixed_model)
            assert _orbit_ranks(comp.fixed_model) == want
            chars = reference_character_rows(comp.cyclic)
            assert refined_ranks(X, comp) == reference_orbit_ranks(comp.fixed_model, chars)
        for comp in inertia(X, p):
            want = reference_orbit_ranks(comp.fixed_model)
            assert _orbit_ranks(comp.fixed_model) == _orbit_ranks(comp.fixed_model, X) == want


@pytest.mark.parametrize("n", (5, 6))
def test_orbit_ranks_on_point_and_pair_models_match_the_reference(n):
    G = symmetric_group(n)
    assert_orbit_ranks_match_the_reference(EquivariantModel.hset(G, n, G.generators))
    assert_orbit_ranks_match_the_reference(pairs_model(n))


@pytest.mark.parametrize("path", CELL_DOCS, ids=lambda p: p.name)
def test_orbit_ranks_on_cell_models_match_the_reference(path):
    # several dimensions, so each count runs on a proper subset of the cells
    X = load_document(str(path)).model
    assert len(X.cells_of_dim()) > 1
    assert_orbit_ranks_match_the_reference(X)


def test_orbit_ranks_on_empty_loci_match_the_reference():
    # S4's double transpositions and 4-cycles declare no locus in the cell
    # model, and S5's 5-cycles and elements of order 6 fix no point of the
    # point model
    S5 = symmetric_group(5)
    models = [load_document(str(CELL_DOCS[0])).model, EquivariantModel.hset(S5, 5, S5.generators)]
    empty = 0
    for X in models:
        for comp in cyclotomic_inertia(X):
            if comp.fixed_model.size == 0:
                empty += 1
                assert refined_ranks(X, comp) == {}
                chars = reference_character_rows(comp.cyclic)
                assert reference_orbit_ranks(comp.fixed_model, chars) == {}
    assert empty == 4


def test_orbit_ranks_on_suite_models_match_the_reference():
    # coset models: point-model loci smaller than their rows, with characters
    for _label, X, _H, _p in suite_inputs(0, 20):
        assert_orbit_ranks_match_the_reference(X)


def _counting_columns(monkeypatch) -> tuple[list, list]:
    """Record the cell of every column ``_count_orbits`` builds, one getter each,
    and every image set it marks seen."""
    made, marked = [], []
    real = stacky.perms.itemgetter

    class Seen(set):
        def update(self, images):
            marked.append(set(images))
            super().update(marked[-1])

    monkeypatch.setattr(stacky.perms, "itemgetter", lambda x: made.append(x) or real(x))
    monkeypatch.setattr(stacky.perms, "set", Seen, raising=False)
    return made, marked


def test_orbit_count_forms_one_image_set_per_orbit(monkeypatch):
    # S6 on its 15 unordered pairs, 720 rows: one column per pair, and one
    # orbit, one image set
    rows = pairs_model(6).element_actions
    made, marked = _counting_columns(monkeypatch)
    assert _count_orbits(rows) == 1
    assert made == list(range(15))
    assert marked == [set(range(15))]


@pytest.mark.parametrize("make,cells,orbits,pairs", [
    # the class of <(0 1 2)> on S6's pairs, on the three of 15 pairs it fixes:
    # its centralizer C3 x S3 has index 2 in N, which swaps the two characters
    (lambda: pairs_model(6), 3, 1, 1),
    # C3 on the orbifold curve's cells: both fixed cells keep both characters
    (lambda: load_document(str(CELL_DOCS[1])).model, 2, 2, 4),
], ids=["S6-pairs", "curve_0_33"])
def test_refined_orbit_count_builds_one_column_per_fixed_cell(
        monkeypatch, make, cells, orbits, pairs):
    # phi(3) = 2 characters in r orbits of N, so the pair count is r times the
    # orbits of the centralizer C, counted on its rows; no column is built for a
    # cell the class does not fix
    parent = make()
    comp = next(comp for comp in cyclotomic_inertia(parent) if comp.cyclic.order == 3)
    X = comp.fixed_model
    C, r = conjugation_kernel(comp.cyclic, parent.group)
    assert X.size == cells and comp.chars == r == pairs // orbits
    assert reference_orbit_ranks(X, reference_character_rows(comp.cyclic)) == {0: pairs}
    rows = tuple(map(X.element_actions.__getitem__, C))
    made, marked = _counting_columns(monkeypatch)
    assert _count_orbits(rows, X.cells) == orbits
    assert made == list(X.cells)
    assert len(marked) == orbits and sum(map(len, marked)) == cells


class _LengthOnly:
    """Rows that answer len() and nothing else."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n


@pytest.mark.parametrize("k", (3, 8))
def test_generators_route_reads_no_row(k):
    # C2^k on 2k points, as k transpositions: k orbits, closed under the k
    # generators' rows and checked against stab, with the 2^k rows unread
    G = generate_group(2 * k, [Perm.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)])
    X = EquivariantModel.hset(G, 2 * k, G.generators)
    gens = [X.element_actions[G.index[s]] for s in G.generators]
    assert _count_orbits(_LengthOnly(G.order), X.cells, gens, X.stab) == k


def reference_restrict_rows(rows, cells):
    """Each row on the positions of the cells, one lookup per cell."""
    return tuple(tuple(cells.index(row[c]) for c in cells) for row in rows)


@pytest.mark.parametrize("cells", [(), (0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (4, 3, 2, 1, 0),
                                   (0, 1, 2), (3, 4), (4, 3), (2, 0, 1)])
def test_restricted_rows_match_the_reference(cells):
    # S3 x C2 on 3 + 2 points preserves {0, 1, 2} and {3, 4}: counted on the
    # cells in place, the orbits are those of the rows restricted to them
    rows = [g.images for g in direct_product(symmetric_group(3), cyclic_group(2)).elements]
    restricted = reference_restrict_rows(rows, cells)
    assert len(restricted) == len(rows) and all(len(row) == len(cells) for row in restricted)
    assert _count_orbits(rows, cells) == _count_orbits(restricted) == len({
        frozenset(row[c] for row in rows) for c in cells})


@pytest.mark.parametrize("seed", (0, 7))
def test_product_loci_of_the_second_factor_are_the_model_rows(seed):
    # a class of H fixes every point of X, so its locus rows are the product
    # model's own rows at the normalizer's indices
    checked = 0
    for _label, X, H, _p in suite_inputs(seed, 10):
        P = product_with_point_model(X, H)
        identity = tuple(range(X.group.degree))
        for c in cyclic_subgroup_classes(P.group):
            if c.order > 1 and c.generator.images[:X.group.degree] == identity:
                dims, rows, cells = P.locus(c)
                assert dims == P.dims and cells == tuple(P.cells)
                assert len(rows) == len(c.normalizer_indices)
                assert all(row is P.element_actions[i]
                           for row, i in zip(rows, c.normalizer_indices))
                checked += 1
    assert checked > 0


def reference_inertia_components(G, p):
    """Per cyclic class, the generators of its subgroup in sorted order, the first
    met of each element class (by a fresh element -> class dict), and its
    centralizer by conjugation."""
    class_of = {x: i for i, cls in enumerate(reference_conjugacy_classes(G)) for x in cls.members}
    out = []
    for c in cyclic_subgroup_classes(G, p):
        seen = set()
        for h in sorted(c.subgroup_elements[k] for k in character_indices(c.order)):
            if class_of[h] not in seen:
                seen.add(class_of[h])
                out.append((h, reference_centralizer(G, h)))
    return out


@pytest.mark.parametrize("n", (4, 5, 6))
def test_inertia_representatives_and_centralizers_match_the_reference(n):
    # the second call reads the pairs each class kept from the first
    X = pairs_model(n)
    for p in (0, 2, 3):
        ref = reference_inertia_components(X.group, p)
        for _ in range(2):
            assert [(comp.representative, comp.centralizer.elements)
                    for comp in inertia(X, p)] == ref


@settings(max_examples=60)
@given(st.sampled_from(SMALL), st.integers(0, 2**32))
def test_orbit_ranks_on_random_coset_models_match_the_reference(index, seed):
    assert_orbit_ranks_match_the_reference(random_coset_model(random.Random(seed), _group(index)))


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


# ---------------------------------------------------------------------------
# Gerbe pair orbits and the automorphism check.

def _replay_words(H, images):
    phi = {}
    for x in H.elements:
        acc = H.identity
        for i in H.words[x]:
            acc = acc * images[i]
        phi[x] = acc
    return phi


def reference_automorphism_map(H, images):
    if len(images) != len(H.generators):
        raise NotAnAutomorphismError(
            f"expected {len(H.generators)} generator images, got {len(images)}")
    for img in images:
        if img not in H:
            raise NotAnAutomorphismError("generator image is not a group element")
    phi = _replay_words(H, images)
    for a in H.elements:
        for b in H.elements:
            if phi[a * b] != phi[a] * phi[b]:
                raise NotAnAutomorphismError(
                    f"images are not multiplicative at {a.cycle_string()}, {b.cycle_string()}")
    if len(set(phi.values())) != H.order:
        raise NotAnAutomorphismError("images define a non-bijective endomorphism")
    return phi


def _reference_pair_key(sub, j):
    return (len(sub), tuple(sorted(x.images for x in sub)), j)


def reference_gerbe_rset(H, p, monodromy):
    subs = {}
    # elements are sorted, so the first generator met of a subgroup is its least
    for g in H.elements:
        pw = powers(g)
        if (p == 0 or math.gcd(len(pw), p) == 1) and frozenset(pw) not in subs:
            subs[frozenset(pw)] = pw

    def act_pair(pair, conj):
        sub, j = pair
        h, hinv = conj
        new_sub = frozenset(h * x * hinv for x in sub)
        m = len(sub)
        if m == 1:
            return (new_sub, 0)
        t = subs[sub].index(hinv * subs[new_sub][1] * h)
        return (new_sub, j * t % m)

    pairs = [(sub, j) for sub in subs for j in character_indices(len(sub))]
    orbit_index = {}
    orbits = []
    for pair in sorted(pairs, key=lambda sj: _reference_pair_key(*sj)):
        if pair not in orbit_index:
            orbit_index.update(dict.fromkeys(orbit([pair], _conjugators(H), act_pair),
                                             len(orbits)))
            orbits.append(pair)
    if _bh_rank(H, p) != len(orbits):
        raise RuntimeError("internal error: pair-orbit count disagrees with "
                           "per-class character orbits")

    aut_perms = []
    for images in monodromy:
        phi = reference_automorphism_map(H, tuple(images))
        phi_inv = {v: k for k, v in phi.items()}
        moved = []
        for sub, j in orbits:
            new_sub = frozenset(phi[x] for x in sub)
            m = len(sub)
            if m == 1:
                image_pair = (new_sub, 0)
            else:
                t = subs[sub].index(phi_inv[subs[new_sub][1]])
                image_pair = (new_sub, j * t % m)
            moved.append(orbit_index[image_pair])
        aut_perms.append(Perm(moved))

    distinguished = orbit_index[(frozenset([H.identity]), 0)]
    elements = tuple((tuple(sorted(x.images for x in sub)), j) for sub, j in orbits)
    return CharacterOrbitSet(elements, tuple(aut_perms), distinguished)


# the seeded groups of order at most 120, each generated once
SMALL_CASES = {}
for _index, (_degree, _gens) in enumerate(CASES):
    _G = generate_group(_degree, [Perm(g) for g in _gens])
    if _G.order <= 120:
        SMALL_CASES[_index] = _G


def _inner_automorphisms(rng, H, count=3):
    out = []
    for _ in range(count):
        h = rng.choice(H.elements)
        out.append(tuple(h * g * h.inverse() for g in H.generators))
    return tuple(out)


def _check_outcome(fn, H, images):
    """The map as a list, i -> index of phi(e_i), or the exception type with
    whether the images failed to be multiplicative (the check before
    bijectivity)."""
    try:
        phi = fn(H, images)
    except NotAnAutomorphismError as exc:
        text = str(exc)
        return type(exc), text.startswith(("images are not multiplicative",
                                           "images do not extend"))
    # the reference's map is a dict on Perms, ours the row itself
    return [H.index[phi[x]] for x in H.elements] if isinstance(phi, dict) else list(phi)


@st.composite
def image_sets(draw):
    """A seeded group and one random element per generator."""
    index = draw(st.sampled_from(sorted(SMALL_CASES)))
    H = SMALL_CASES[index]
    return H, tuple(H.elements[draw(st.integers(0, H.order - 1))] for _ in H.generators)


@given(image_sets())
def test_automorphism_check_matches_the_reference_on_random_images(case):
    H, images = case
    ours = _check_outcome(_automorphism_map, H, images)
    ref = _check_outcome(reference_automorphism_map, H, images)
    # the reference replays one word per element, so it never reads the image
    # of a redundant generator; sent elsewhere, the images are no homomorphism
    missed = all(im in H for im in images) and any(
        _replay_words(H, images)[g] != im for g, im in zip(H.generators, images))
    if missed:
        assert ours == (NotAnAutomorphismError, True)
    else:
        assert ours == ref
    if isinstance(ours, list):
        assert gerbe_rset(H, 0, (images,)) == reference_gerbe_rset(H, 0, (images,))


def test_redundant_generator_sent_off_the_extended_map_is_refused():
    # the identity is a generator here and no element's word uses it: the
    # reference accepted any image for it and built the identity map
    H = generate_group(2, [Perm([1, 0]), Perm([0, 1])])
    images = (Perm([1, 0]), Perm([1, 0]))
    assert reference_automorphism_map(H, images) == {x: x for x in H.elements}
    with pytest.raises(NotAnAutomorphismError, match=r"do not extend to a group action at \(\)"):
        _automorphism_map(H, images)


@pytest.mark.parametrize("index", sorted(SMALL_CASES))
def test_gerbe_rset_matches_the_reference(index):
    H = SMALL_CASES[index]
    autos = _inner_automorphisms(random.Random(index), H)
    for p in (0, 2, 3):
        for monodromy in ((), autos):
            assert gerbe_rset(H, p, monodromy) == reference_gerbe_rset(H, p, monodromy)


@pytest.mark.parametrize("name", ["D4", "Q8", "C12"])
def test_gerbe_rset_matches_the_reference_under_outer_automorphisms(name):
    # every automorphism of the band, as generator images: outer ones move
    # the pair orbits, which inner ones never do
    H = {"D4": lambda: dihedral_group(4), "Q8": quaternion_group,
         "C12": lambda: cyclic_group(12)}[name]()
    autos = []
    for images in itertools.product(H.elements, repeat=len(H.generators)):
        if isinstance(_check_outcome(reference_automorphism_map, H, images), list):
            autos.append(images)
    assert all(_check_outcome(_automorphism_map, H, a)
               == _check_outcome(reference_automorphism_map, H, a) for a in autos)
    for p in (0, 2, 3):
        assert gerbe_rset(H, p, autos) == reference_gerbe_rset(H, p, autos)


# ---------------------------------------------------------------------------
# Action extension and point-model loci.

def reference_extend_action(elements, gens, images, degree, *, words=None):
    """Replay each element's word by Perm products, then check act(x g) =
    act(x) img by Perm products at every element and generator."""
    if len(gens) != len(images):
        raise InconsistentActionError("generator and image counts differ")
    if words is None:
        ident = Perm.identity(gens[0].degree if gens else elements[0].degree)
        words = orbit([ident], gens, Perm.__mul__)
        if set(words) != set(elements):
            raise InconsistentActionError(
                "generators do not generate the expected element set")
    ident_cells = Perm.identity(degree)
    actions = {}
    for x in elements:
        acc = ident_cells
        for i in words[x]:
            acc = acc * images[i]
        actions[x] = acc
    for x in elements:
        fx = actions[x]
        for g, img in zip(gens, images):
            if actions[x * g] != fx * img:
                raise InconsistentActionError(
                    f"images do not extend to a group action at {x.cycle_string()}")
    return actions


def reference_hset_locus(X, c):
    fixed = tuple(p for p in range(X.size) if X.action_of(c.generator)(p) == p)
    pos = {p: i for i, p in enumerate(fixed)}
    actions = {}
    for n in c.normalizer.elements:
        amb = X.action_of(n)
        actions[n] = Perm([pos[amb(p)] for p in fixed])
    return tuple(X.dims[p] for p in fixed), actions


def _extension_outcome(fn, *args, **kwargs):
    """The action as rows in element order, or the exception type and message."""
    try:
        act = fn(*args, **kwargs)
    except (InconsistentActionError, NonBijectionError) as exc:
        return type(exc), str(exc)
    # the reference's action is a dict on Perms in element order, ours the rows
    return tuple(p.images for p in act.values()) if isinstance(act, dict) else act


REFERENCE_GROUPS = [(f"case{i}", lambda d=d, g=g: generate_group(d, [Perm(x) for x in g]))
                    for i, (d, g) in enumerate(CASES)] + list(NAMED_GROUPS.items())


@pytest.mark.parametrize("name,make", REFERENCE_GROUPS, ids=[n for n, _ in REFERENCE_GROUPS])
def test_extension_and_loci_match_the_reference(name, make):
    G = make()
    models = [EquivariantModel.hset(G, G.degree, G.generators)]
    if G.order <= 120:
        models.append(random_coset_model(random.Random(0), G, max_points=12))
    for X in models:
        ref = reference_extend_action(G.elements, G.generators, X.generator_images, X.size,
                                      words=G.words)
        assert list(ref) == list(G.elements)
        assert X.element_actions == tuple(a.images for a in ref.values())
        for c in cyclic_subgroup_classes(G, 0)[1:]:
            dims, rows, cells = X.locus(c)
            ref_dims, ref_act = reference_hset_locus(X, c)
            assert list(ref_act) == list(c.normalizer.elements)
            # the model's own rows at the normalizer's indices, restricted here
            assert all(row is X.element_actions[i] for row, i in zip(rows, c.normalizer_indices))
            assert dims == ref_dims and (reference_restrict_rows(rows, cells)
                                         == tuple(a.images for a in ref_act.values()))
        # nothing is kept on the model
        assert X.locus_actions == {}


@st.composite
def bad_image_sets(draw):
    """A small group and one random permutation of a few points per generator."""
    index = draw(st.sampled_from(sorted(SMALL_CASES)))
    H = SMALL_CASES[index]
    degree = draw(st.integers(1, 5))
    return H, degree, tuple(Perm(draw(st.permutations(range(degree)))) for _ in H.generators)


@given(bad_image_sets())
def test_extension_errors_match_the_reference_on_random_images(case):
    H, degree, images = case
    ours = _extension_outcome(extend_action, H, images, degree)
    ref = _extension_outcome(reference_extend_action, H.elements, H.generators, images,
                             degree, words=H.words)
    assert ours == ref


def test_extension_degree_mismatch_matches_the_reference():
    G = symmetric_group(3)
    images = (Perm([1, 0]), Perm([0, 1, 2]))
    ours = _extension_outcome(extend_action, G, images, 3)
    ref = _extension_outcome(reference_extend_action, G.elements, G.generators, images, 3,
                             words=G.words)
    assert ours == ref == (NonBijectionError, "cannot compose permutations of different degrees")


@pytest.mark.parametrize("gens,images", [
    # (2 3) alone does not generate the normalizer of <(0 1)>
    (((0, 1, 3, 2),), ((1, 0),)),
    # (0 1)(2 3) must act as (0 1) times (2 3) does
    (((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)), ((0, 1), (1, 0), (0, 1))),
])
def test_declared_locus_extension_errors_match_the_reference(gens, images):
    # a declared locus's normalizer action is extended from a closure of its
    # own generators, which the reference ran without precomputed words
    G = symmetric_group(4)
    g = Perm([1, 0, 2, 3])
    gens, images = tuple(map(Perm, gens)), tuple(map(Perm, images))
    N = sorted(reference_normalizer(G, powers(g)).elements)
    ref = _extension_outcome(reference_extend_action, N, gens, images, 2)
    ours = _extension_outcome(lambda: EquivariantModel(
        G, (0,), [Perm([0])] * 2, kind="cells",
        fixed_loci=[FixedLocus(g, (0, 0), gens, images)]).locus_actions)
    assert ours == ref and ref[0] is InconsistentActionError


# ---------------------------------------------------------------------------
# Group generation, powers and centralizers.

def reference_generate_group(degree, gens):
    """(elements, words): the closure by Perm products, sorted as Perms."""
    words = orbit([Perm.identity(degree)], tuple(gens), Perm.__mul__)
    return tuple(sorted(words)), words


def reference_powers(g):
    ident = Perm.identity(g.degree)
    out = [ident]
    x = g
    while x != ident:
        out.append(x)
        x = x * g
    return tuple(out)


def reference_centralizer(G, h):
    return tuple(g for g in G.elements if _conjugate(g.images, h.images) == h.images)


def reference_reduce_generators(elements, degree):
    target = len(elements)
    ident = Perm.identity(degree)
    chosen = []
    closure = {ident}
    for g in sorted(elements):
        if g in closure:
            continue
        chosen.append(g)
        closure = orbit([ident], chosen, Perm.__mul__)
        if len(closure) == target:
            break
    return tuple(chosen)


KERNEL_GROUPS = dict(NAMED_GROUPS, **{
    "S3xC4": lambda: direct_product(symmetric_group(3), cyclic_group(4)),
    "Q8xC3": lambda: direct_product(quaternion_group(), cyclic_group(3)),
})


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_tuple_closures_and_centralizers_match_the_reference(name):
    G = KERNEL_GROUPS[name]()
    elements, words = reference_generate_group(G.degree, G.generators)
    # equal elements in the same order, and equal words in discovery order
    assert G.elements == elements
    assert list(G.words.items()) == list(words.items())
    assert all(type(x) is Perm for x in G.words)
    for g in G.elements:
        assert powers(g) == reference_powers(g)
    # the rows the centralizer walks: s^-1 e_i s by Perm products
    for s, row in zip(G.generators, G._conjugation_rows):
        assert row == tuple(G.index[s.inverse() * x * s] for x in G.elements)
    assert reduce_generators(G.elements, G.degree) == reference_reduce_generators(G.elements,
                                                                                 G.degree)
    for c in cyclic_subgroup_classes(G, 0):
        N = c.normalizer.elements
        assert reduce_generators(N, G.degree) == reference_reduce_generators(N, G.degree)
    hs = G.elements if G.order <= 120 else [c.representative for c in conjugacy_classes(G)]
    for h in hs:
        Z = centralizer(G, h)
        assert Z.elements == reference_centralizer(G, h)


# ---------------------------------------------------------------------------
# Normalizers and the quaternion group.

def reference_quaternion_group():
    """Q8 from its multiplication table: left multiplication by i and by j on
    1, -1, i, -i, j, -j, k, -k, encoded as 2 * basis + sign."""
    def enc(b, s):
        return 2 * b + s

    table = {}
    signs = {(1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
             (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
             (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1)}
    for b1, s1, b2, s2 in itertools.product(range(4), range(2), range(4), range(2)):
        if b1 == 0:
            b, extra = b2, 0
        elif b2 == 0:
            b, extra = b1, 0
        else:
            b, extra = signs[(b1, b2)]
        table[(enc(b1, s1), enc(b2, s2))] = enc(b, (s1 + s2 + extra) % 2)

    def left_mul(x):
        return Perm([table[(x, y)] for y in range(8)])

    return generate_group(8, [left_mul(enc(1, 0)), left_mul(enc(2, 0))])


def test_quaternion_group_matches_its_multiplication_table():
    G, ref = quaternion_group(), reference_quaternion_group()
    assert G.generators == ref.generators
    assert G.elements == ref.elements
    assert list(G.words.items()) == list(ref.words.items())


# ---------------------------------------------------------------------------
# Character-table kernels: class-sum matrices and eigenspace splits.

def reference_structure_constants(G, classes):
    """a[i][j][k] = #{x in C_i : x^-1 z_k in C_j} by Perm inverses and products."""
    class_of = {g: i for i, c in enumerate(classes) for g in c.members}
    r = len(classes)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, cls in enumerate(classes):
        for x in cls.members:
            xinv = x.inverse()
            for k, c in enumerate(classes):
                a[i][class_of[xinv * c.representative]][k] += 1
    return a


def densify(M, width):
    """Sparse rows of (column, value) pairs as dense rows of the given width."""
    dense = [[0] * width for _ in M]
    for out, row in zip(dense, M):
        for j, x in row:
            out[j] = x
    return dense


def sparse(A, q):
    """Dense rows as sparse rows: the (column, value) pairs with value != 0 mod q."""
    return [[(j, x % q) for j, x in enumerate(row) if x % q] for row in A]


def reference_split(M, B, q):
    """The eigenspaces of M (sparse rows) on span(B), densified, a nullspace
    taken at every lambda in F_q."""
    d, dense = len(B), densify(M, len(B[0]))
    A = _coords_in_basis(B, [[sum(x * y for x, y in zip(row, b)) % q for row in dense]
                             for b in B], q)
    grouped, found = [], 0
    for lam in range(q):
        shifted = [[(A[u][t] - (lam if u == t else 0)) % q for t in range(d)] for u in range(d)]
        kernel = _nullspace(shifted, q)
        if not kernel:
            continue
        grouped.append([
            [sum(coord[s] * B[s][t] for s in range(d)) % q for t in range(len(B[0]))]
            for coord in kernel])
        found += len(kernel)
        if found == d:
            break
    if found != d:
        raise InternalError("chars.diagonalizable", "invariant subspace is not diagonalizable")
    return grouped


def d4_c2_c2():
    """20 classes against q = 13: the first split is of a space of dimension d > q."""
    return direct_product(dihedral_group(4), direct_product(cyclic_group(2), cyclic_group(2)))


TABLE_GROUPS = [(f"case{i}", lambda d=d, g=g: generate_group(d, [Perm(x) for x in g]))
                for i, (d, g) in enumerate(CASES)] + [("D4xC2xC2", d4_c2_c2)]


@pytest.mark.parametrize("name,make", TABLE_GROUPS)
def test_structure_constants_match_the_perm_products(name, make):
    G = make()
    classes = conjugacy_classes(G)
    mats, class_of, inv_class = _class_sum_matrices(G, classes)
    r = len(classes)
    # M_i[k][j] = a[i][j][k]
    assert [[[mats[i][k][j] for k in range(r)] for j in range(r)]
            for i in range(r)] == reference_structure_constants(G, classes)
    assert class_of == [next(i for i, c in enumerate(classes) if g in c.members)
                        for g in G.elements]
    assert inv_class == [class_of[G.index[c.representative.inverse()]] for c in classes]


SPLIT_GROUPS = {**KERNEL_GROUPS, "A4": lambda: alternating_group(4),
                "D8": lambda: dihedral_group(8), "D4xC2xC2": d4_c2_c2}


@pytest.mark.parametrize("name", SPLIT_GROUPS)
def test_table_splits_match_the_q_scan(monkeypatch, name):
    # every split character_table makes, the first one of D4 x C2 x C2 on a
    # space of dimension 20 over F_13
    G, seen = SPLIT_GROUPS[name](), []

    def recording(M, B, q):
        spaces = _split_invariant_subspace(M, B, q)
        seen.append((M, B, q, spaces))
        return spaces

    monkeypatch.setattr(stacky.chars, "_split_invariant_subspace", recording)
    character_table(G)
    monkeypatch.undo()
    assert seen or G.is_abelian()
    for M, B, q, spaces in seen:
        assert spaces == reference_split(M, B, q)
    if name == "D4xC2xC2":
        assert max(len(B) - q for _, B, q, _ in seen) == 7


# ---------------------------------------------------------------------------
# Character values: one lift per covering cyclic subgroup, on sparse rows.

def lift_calls(G):
    """Every _lift_powers call character_table(G) makes, with its result."""
    calls, real = [], stacky.chars._lift_powers

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stacky.chars, "_lift_powers", recording)
        character_table(G)
    return calls


def assert_lifts_match_the_per_class_lift(G):
    classes = conjugacy_classes(G)
    class_of = {g: i for i, c in enumerate(classes) for g in c.members}
    power_class = [[class_of[x] for x in powers(c.representative)] for c in classes]
    reached: dict[tuple[int, ...], set[int]] = {}
    calls = lift_calls(G)
    for (chi_q, pw, e, q, theta, deg), values in calls:
        # each lift runs on the powers of a class representative
        assert pw == power_class[pw[1 % len(pw)]]
        for c, value in values.items():
            want = oracles.per_class_lift(chi_q, power_class[c], e, q, theta, deg)
            assert (value.conductor, value.coeffs) == (classes[c].order, tuple(want))
        reached.setdefault(tuple(chi_q), set()).update(values)
    # the lifts of each character reach every class
    assert calls or G.is_abelian()
    assert all(cs == set(range(len(classes))) for cs in reached.values())
    assert len(reached) == (0 if G.is_abelian() else len(classes))


LIFT_GROUPS = {**SPLIT_GROUPS, "D12": lambda: dihedral_group(12),
               "D15": lambda: dihedral_group(15), "D50": lambda: dihedral_group(50)}


@pytest.mark.parametrize("name", LIFT_GROUPS)
def test_covering_lifts_match_the_per_class_lift_on_named_groups(name):
    assert_lifts_match_the_per_class_lift(LIFT_GROUPS[name]())


@settings(max_examples=30)
@given(relabelled_groups())
def test_covering_lifts_match_the_per_class_lift_on_relabelled_groups(G):
    assert_lifts_match_the_per_class_lift(G)


@pytest.mark.parametrize("name", LIFT_GROUPS)
def test_sparse_rows_hold_the_nonzeros_of_the_class_sums(name):
    # the joint-eigenvector check multiplies by every class-sum matrix, so the
    # matrices handed to _matvec are all the sparse rows the kernel built
    G, seen = LIFT_GROUPS[name](), {}
    real = stacky.chars._matvec

    def recording(M, v, q):
        seen[id(M)] = (M, q)
        return real(M, v, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stacky.chars, "_matvec", recording)
        character_table(G)
    if G.is_abelian():
        assert not seen
        return
    classes = conjugacy_classes(G)
    r = len(classes)
    (q,) = {q for _, q in seen.values()}
    for M, _ in seen.values():
        for row in M:
            assert [j for j, _ in row] == sorted({j for j, _ in row})
            assert all(0 < x < q for _, x in row)
    dense = [[[x % q for x in row] for row in M] for M in _class_sum_matrices(G, classes)[0]]
    assert sorted(densify(M, r) for M, _ in seen.values()) == sorted(dense)


def _evaluate(poly, lam, q):
    value = 0
    for c in poly:
        value = (value * lam + c) % q
    return value


def _inverse(P, q):
    """P^-1 over F_q, or None if P is singular."""
    d = len(P)
    aug = [list(row) + [1 if t == u else 0 for t in range(d)] for u, row in enumerate(P)]
    if len(_row_reduce(aug, d, q)) < d:
        return None
    return [row[d:] for row in aug]


def _product(X, Y, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*Y)] for row in X]


def _random_square(rng, d, q, kind):
    """A random matrix, or one similar to a diagonal matrix with few distinct
    eigenvalues, or to one with a 2 x 2 Jordan block."""
    if kind == "plain":
        return [[rng.randrange(q) for _ in range(d)] for _ in range(d)]
    values = [rng.randrange(q) for _ in range(3)]
    D = [[rng.choice(values) if t == u else 0 for t in range(d)] for u in range(d)]
    if kind == "jordan" and d > 1:
        D[1][1] = D[0][0]
        D[0][1] = 1
    while (P_inv := _inverse(P := [[rng.randrange(q) for _ in range(d)]
                                   for _ in range(d)], q)) is None:
        pass
    return _product(_product(P, D, q), P_inv, q)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_charpoly_roots_are_the_eigenvalues(q):
    rng = random.Random(1000 + q)
    for d in (1, 2, q - 1, q, q + 2):
        identity = [[1 if t == u else 0 for t in range(d)] for u in range(d)]
        for kind in ("plain", "diagonal", "jordan"):
            for _ in range(3):
                A = _random_square(rng, d, q, kind)
                poly = _charpoly(A, q)
                assert len(poly) == d + 1 and poly[0] == 1
                roots = [lam for lam in range(q) if _evaluate(poly, lam, q) == 0]
                assert roots == [lam for lam in range(q) if _nullspace(
                    [[(A[u][t] - (lam if u == t else 0)) % q for t in range(d)]
                     for u in range(d)], q)]
                # Cayley-Hamilton: p(A) = 0, by Horner's rule on matrices
                value = [[0] * d for _ in range(d)]
                for c in poly:
                    value = _product(value, A, q)
                    value = [[(x + c * e) % q for x, e in zip(row, unit)]
                             for row, unit in zip(value, identity)]
                assert not any(map(any, value))
                # the q-scan and the roots split the whole space alike, given
                # A as the sparse rows the table kernel hands over
                B = [list(row) for row in identity]
                outcomes = []
                for split in (_split_invariant_subspace, reference_split):
                    try:
                        outcomes.append(split(sparse(A, q), B, q))
                    except InternalError as exc:
                        outcomes.append(exc.name)
                assert outcomes[0] == outcomes[1]
                if kind == "diagonal":
                    assert outcomes[0] != "chars.diagonalizable"
                elif kind == "jordan" and d > 1:
                    assert outcomes[0] == "chars.diagonalizable"


# ---------------------------------------------------------------------------
# Direct products from their factors' tables.

def reference_product_generators(G, H):
    """The product's generators as the concatenated images: G's, then H's."""
    a, b = G.degree, H.degree
    return ([Perm(g.images + tuple(range(a, a + b))) for g in G.generators]
            + [Perm(tuple(range(a)) + tuple(x + a for x in h.images)) for h in H.generators])


def product_tables(G):
    return {"elements": G.elements, "words": list(G.words.items()),
            "discovery": G._discovery, "right rows": G._right_rows,
            "conjugation rows": G._conjugation_rows,
            "cyclic subgroups": list(G._cyclic_subgroups.items())}


def assert_product_matches_generation(G, H):
    GH = direct_product(G, H)
    gens = reference_product_generators(G, H)
    assert GH.generators == tuple(gens) and GH.degree == G.degree + H.degree
    assert product_tables(GH) == product_tables(generate_group(GH.degree, gens))


PRODUCT_PAIRS = {
    "S3xC4": lambda: (symmetric_group(3), cyclic_group(4)),
    "Q8xC3": lambda: (quaternion_group(), cyclic_group(3)),
    "C2xC6": lambda: (cyclic_group(2), cyclic_group(6)),
    "A4xS3": lambda: (alternating_group(4), symmetric_group(3)),
    "D6xQ8": lambda: (dihedral_group(6), quaternion_group()),
    "C1xS3": lambda: (cyclic_group(1), symmetric_group(3)),
    "S4xC1": lambda: (symmetric_group(4), cyclic_group(1)),
    "C1xC1": lambda: (cyclic_group(1), cyclic_group(1)),
    "D4x(C2xC2)": lambda: (dihedral_group(4), direct_product(cyclic_group(2), cyclic_group(2))),
    "(D4xC2)xC2": lambda: (direct_product(dihedral_group(4), cyclic_group(2)), cyclic_group(2)),
}


@pytest.mark.parametrize("name", PRODUCT_PAIRS)
def test_product_tables_match_generation_on_named_pairs(name):
    assert_product_matches_generation(*PRODUCT_PAIRS[name]())


@settings(max_examples=30)
@given(relabelled_groups(), relabelled_groups())
def test_product_tables_match_generation_on_relabelled_factors(G, H):
    if G.order * H.order > 10_000:
        # the element cap refuses it before any table is built, as generation does
        with pytest.raises(GroupTooLargeError) as got:
            direct_product(G, H)
        with pytest.raises(GroupTooLargeError) as want:
            generate_group(G.degree + H.degree, reference_product_generators(G, H))
        assert str(got.value) == str(want.value) == "closure exceeds element cap 10000"
    else:
        assert_product_matches_generation(G, H)


@pytest.mark.parametrize("G,H,message", [
    (cyclic_group(33), cyclic_group(32), "degree 65 exceeds cap 64"),
    (symmetric_group(5), symmetric_group(5), "closure exceeds element cap 10000"),
], ids=["degree", "elements"])
def test_product_caps_refuse_as_generation_does(G, H, message):
    # S5 x S5 has 14,400 elements
    with pytest.raises(GroupTooLargeError) as got:
        direct_product(G, H)
    with pytest.raises(GroupTooLargeError) as want:
        generate_group(G.degree + H.degree, reference_product_generators(G, H))
    assert str(got.value) == str(want.value) == message


def test_products_at_the_caps_are_built():
    # degree 64, and 10,000 elements: neither cap is exceeded
    assert direct_product(cyclic_group(32), cyclic_group(32)).order == 1024
    C100 = direct_product(cyclic_group(4), cyclic_group(25))
    assert direct_product(C100, C100).order == 10_000


@pytest.mark.parametrize("seed", (0, 3, 7))
def test_product_model_rows_match_the_extension_on_suite_inputs(seed):
    for _label, X, H, _p in suite_inputs(seed, 25):
        P = product_with_point_model(X, H)
        GH = P.group
        assert product_tables(GH) == product_tables(generate_group(GH.degree, GH.generators))
        assert (P.kind, P.dims, P.fixed_loci) == ("hset", X.dims, ())
        assert P.generator_images == X.generator_images + (Perm.identity(X.size),) * len(
            H.generators)
        assert P.element_actions == extend_action(GH, P.generator_images, P.size)


def test_product_model_refuses_a_cell_model():
    X = EquivariantModel(symmetric_group(3), (0, 1), [Perm([0, 1])] * 2, kind="cells")
    with pytest.raises(ValidationError) as got:
        product_with_point_model(X, cyclic_group(2))
    assert str(got.value) == "model: product models are supported for point-set models"
