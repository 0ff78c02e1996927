"""Permutation-group kernel tests, cross-checked against naive oracles."""

from __future__ import annotations

import gc
import math
import random
import weakref

import pytest

import oracles
import stacky.perms
from stacky.errors import (
    BadCharacteristicError,
    GroupTooLargeError,
    NonBijectionError,
    NotASubgroupError,
    NotInNormalizerError,
)
from stacky.perms import (
    FiniteGroup,
    Perm,
    _count_orbits,
    _is_prime,
    alternating_group,
    check_characteristic,
    centralizer,
    conjugacy_classes,
    conjugation_exponent,
    cyclic_group,
    cyclic_subgroup_classes,
    dihedral_group,
    direct_product,
    generate_group,
    powers,
    quaternion_group,
    symmetric_group,
    trivial_group,
)

S3_GENS = [Perm([1, 0, 2]), Perm([1, 2, 0])]


def test_perm_rejects_non_bijection():
    with pytest.raises(NonBijectionError):
        Perm([0, 0, 1])
    with pytest.raises(NonBijectionError):
        Perm([0, 3, 1])


def test_perm_composition_applies_right_factor_first():
    a = Perm([1, 0, 2])   # (0 1)
    b = Perm([1, 2, 0])   # (0 1 2)
    # (a*b)(x) = a(b(x)): 0 -> 1 -> 0, 1 -> 2 -> 2, 2 -> 0 -> 1
    assert (a * b).images == (0, 2, 1)
    assert (a * a).is_identity()
    assert (b * b.inverse()).is_identity()


def test_perm_cycles_and_order():
    g = Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert g.order() == 6
    assert g.cycle_string() == "(0 1 2)(3 4)"
    assert Perm.identity(4).cycle_string() == "()"


def test_generate_group_s3():
    # oracle: fixed-point closure on raw tuples
    oracle = oracles.closure(3, [(1, 0, 2), (1, 2, 0)])
    G = generate_group(3, S3_GENS)
    assert G.order == 6
    assert {g.images for g in G.elements} == oracle
    assert list(G.elements) == sorted(G.elements)


def test_generate_group_trivial_and_cyclic():
    assert generate_group(1, []).order == 1
    oracle = oracles.closure(4, [(1, 2, 3, 0)])
    C4 = generate_group(4, [Perm([1, 2, 3, 0])])
    assert C4.order == 4
    assert {g.images for g in C4.elements} == oracle


def test_generate_group_words_reconstruct_elements():
    G = generate_group(3, S3_GENS)
    for g in G.elements:
        acc = Perm.identity(3)
        for i in G.words[g]:
            acc = acc * G.generators[i]
        assert acc == g


def test_generate_group_caps(monkeypatch):
    # S8 has 40,320 elements: the closure stops at the 10,001st, having formed
    # at most two products per element it kept
    composes = _count_calls(monkeypatch, stacky.perms, "_compose")
    with pytest.raises(GroupTooLargeError, match="^closure exceeds element cap 10000$"):
        generate_group(8, [Perm([1, 0, 2, 3, 4, 5, 6, 7]), Perm([1, 2, 3, 4, 5, 6, 7, 0])])
    assert 10_000 <= composes[0] <= 2 * 10_000
    with pytest.raises(GroupTooLargeError, match="^degree 65 exceeds cap 64$"):
        generate_group(65, [])


@pytest.mark.parametrize("make,expected_sizes", [
    (lambda: symmetric_group(3), [1, 3, 2]),
    (lambda: trivial_group(), [1]),
    (lambda: cyclic_group(4), [1, 1, 1, 1]),
])
def test_conjugacy_class_sizes(make, expected_sizes):
    G = make()
    classes = conjugacy_classes(G)
    assert sorted(c.size for c in classes) == sorted(expected_sizes)
    oracle = oracles.conj_classes({g.images for g in G.elements})
    assert sorted(len(c) for c in oracle) == sorted(expected_sizes)


def test_conjugacy_classes_partition_and_order():
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(4)):
        classes = conjugacy_classes(G)
        seen = [g for c in classes for g in c.members]
        assert len(seen) == G.order and len(set(seen)) == G.order
        for c in classes:
            assert G.order % c.size == 0
            assert c.representative == min(c.members)
            assert all(g.order() == c.order for g in c.members)
        keys = [(c.order, c.representative.images) for c in classes]
        assert keys == sorted(keys)


def test_cyclic_subgroup_classes_s3():
    G = symmetric_group(3)
    classes = cyclic_subgroup_classes(G, 0)
    assert [c.order for c in classes] == [1, 2, 3]
    # oracle: enumerate subgroups on raw tuples, partition by conjugacy
    elems = {g.images for g in G.elements}
    subs = oracles.cyclic_subgroups(elems)
    assert len(oracles.subgroup_conj_classes(elems, subs)) == 3
    assert [c.order for c in cyclic_subgroup_classes(G, 3)] == [1, 2]
    assert [c.order for c in cyclic_subgroup_classes(trivial_group(), 5)] == [1]


def test_cyclic_subgroup_classes_invariants():
    for G in (symmetric_group(4), alternating_group(4), quaternion_group()):
        for c in cyclic_subgroup_classes(G, 0):
            assert len(c.subgroup_elements) == c.order
            assert c.normalizer.order % c.order == 0
            # conjugates * normalizer order = group order
            conjs = {frozenset(x * s * x.inverse() for s in c.subgroup_elements)
                     for x in G.elements}
            assert len(conjs) * c.normalizer.order == G.order
            powers = set(c.subgroup_elements)
            assert {c.generator} <= powers <= set(c.normalizer.elements)


def test_bad_characteristic_rejected():
    with pytest.raises(BadCharacteristicError):
        cyclic_subgroup_classes(symmetric_group(3), 4)
    with pytest.raises(BadCharacteristicError):
        cyclic_subgroup_classes(symmetric_group(3), 1)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-3, 200_000))


def test_is_prime_on_pseudoprimes_and_64_bit_primes():
    # 561 is a Carmichael number; 3825123056546413051 is a strong pseudoprime
    # to every prime base up to 23
    assert not _is_prime(561)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)
    assert _is_prime(2**64 - 59)


def test_characteristic_is_bounded_below_2_to_the_64():
    check_characteristic(2**64 - 59)
    with pytest.raises(BadCharacteristicError, match="is not below 2\\^64"):
        check_characteristic(2**64 + 13)
    with pytest.raises(BadCharacteristicError, match="characteristic 4 is neither 0 nor a prime"):
        check_characteristic(4)


def test_normalizer_and_centralizer_s3():
    G = symmetric_group(3)
    _, c2, c3 = cyclic_subgroup_classes(G, 0)
    assert c3.normalizer.order == 6
    assert c2.normalizer.order == 2
    assert centralizer(G, G.identity).order == 6
    with pytest.raises(NotASubgroupError):
        centralizer(G, Perm([1, 0, 3, 2]))
    # oracle: direct membership test
    cset = {t.images for t in c2.subgroup_elements}
    direct = [g for g in G.elements
              if {oracles.compose(oracles.compose(g.images, t), oracles.invert(g.images))
                  for t in cset} == cset]
    assert len(direct) == 2


def test_conjugation_exponent_s3():
    G = symmetric_group(3)
    c3 = next(c for c in cyclic_subgroup_classes(G, 0) if c.order == 3)
    # oracle: (0 1)(0 1 2)(0 1) = (0 2 1) = g^2
    n = Perm([1, 0, 2])
    assert conjugation_exponent(n, c3) == 2
    assert conjugation_exponent(G.identity, c3) == 1
    c1 = next(c for c in cyclic_subgroup_classes(G, 0) if c.order == 1)
    assert conjugation_exponent(n, c1) == 1


def test_conjugation_exponent_is_a_homomorphism():
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6)):
        for c in cyclic_subgroup_classes(G, 0):
            m = c.order
            exps = {n: conjugation_exponent(n, c) for n in c.normalizer.elements}
            for n1 in c.normalizer.elements:
                for n2 in c.normalizer.elements:
                    assert exps[n1 * n2] % m == (exps[n1] * exps[n2]) % m if m > 1 else True


def test_exponent_table_is_keyed_by_the_normalizer():
    # the exponents are recorded on the group's element indices, non-zero exactly
    # at the normalizer's, and each is the a with n^-1 g n = g^a, checked here
    # with Perm products
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6), cyclic_group(12)):
        for c in cyclic_subgroup_classes(G, 0):
            assert len(c.exponent_row) == G.order
            assert tuple(i for i, a in enumerate(c.exponent_row) if a) == c.normalizer_indices
            assert tuple(map(G.elements.__getitem__, c.normalizer_indices)) == \
                c.normalizer.elements
            for i in c.normalizer_indices:
                n, a = G.elements[i], c.exponent_row[i]
                assert n.inverse() * c.generator * n == c.subgroup_elements[a % c.order]


def test_conjugation_exponent_requires_normalizer_membership():
    G = symmetric_group(3)
    c2 = next(c for c in cyclic_subgroup_classes(G, 0) if c.order == 2)
    outside = next(g for g in G.elements if g not in set(c2.normalizer.elements))
    with pytest.raises(NotInNormalizerError):
        conjugation_exponent(outside, c2)


def test_a_group_with_its_classes_is_freed_by_reference_counting():
    # a Subgroup holds its degree, not its group, so the classes a group keeps
    # make no reference cycle back to it: the group goes with its last name
    G = symmetric_group(4)
    conjugacy_classes(G)
    classes = cyclic_subgroup_classes(G, 0)
    assert all(c.normalizer.identity == c.normalizer.elements[0] for c in classes)
    assert all(c.normalizer.generators for c in classes)  # cached on each
    group = weakref.ref(G)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del G
        assert group() is None
    finally:
        if enabled:
            gc.enable()
    assert classes[-1].normalizer.degree == 4


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the one-element counter."""
    calls = [0]
    inner = getattr(owner, name)

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_cyclic_subgroup_classes_form_powers_only(monkeypatch):
    # powers are closed on image tuples once per cyclic subgroup, and no Perm
    # product is formed; an all-pairs subgroup check or the powers of every
    # element would break the counts
    G = symmetric_group(5)
    subgroups = {frozenset(powers(g)) for g in G.elements}
    products = _count_calls(monkeypatch, Perm, "__mul__")
    power_runs = _count_calls(monkeypatch, stacky.perms, "_power_images")
    cyclic_subgroup_classes(G, 0)
    monkeypatch.undo()
    assert products[0] == 0
    assert power_runs[0] == len(subgroups)


def test_generate_group_forms_no_perm_products(monkeypatch):
    # the closure runs on image tuples and wraps each element once
    products = _count_calls(monkeypatch, Perm, "__mul__")
    wraps = _count_calls(monkeypatch, Perm, "_trusted")
    G = generate_group(5, [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])])
    monkeypatch.undo()
    assert G.order == 120
    assert products[0] == 0
    assert wraps[0] == G.order


def test_centralizer_conjugates_nothing(monkeypatch):
    # the conjugation rows are built first; the centralizer then walks the
    # word tree through them, one walk per call and no Perm product
    G = symmetric_group(5)
    G._conjugation_rows
    walks = _count_calls(monkeypatch, FiniteGroup, "_conjugates")
    products = _count_calls(monkeypatch, Perm, "__mul__")
    sizes = [centralizer(G, cls.representative).order for cls in conjugacy_classes(G)]
    monkeypatch.undo()
    assert sizes == [120, 12, 8, 6, 4, 5, 6]
    assert walks[0] == len(sizes)
    assert products[0] == 0


def test_cyclic_subgroup_classes_conjugate_for_the_rows_only(monkeypatch):
    # the conjugation rows are looked up in the right rows and the inverses,
    # with no image product; the exponents are then walked down the word tree,
    # one walk per class that is not central and no Perm product
    G = symmetric_group(5)
    composes = _count_calls(monkeypatch, stacky.perms, "_compose")
    G._conjugation_rows
    assert composes[0] == 0
    walks = _count_calls(monkeypatch, FiniteGroup, "_conjugates")
    products = _count_calls(monkeypatch, Perm, "__mul__")
    classes = cyclic_subgroup_classes(G, 0)
    monkeypatch.undo()
    assert len(classes) == 7
    # S5 has a trivial centre, so only the trivial class is central
    assert walks[0] == 6
    assert products[0] == 0
    assert all(len(row) == G.order for row in G._conjugation_rows)


def test_a_group_forms_products_only_in_its_closure_and_powers(monkeypatch):
    # generation keeps the closure's |G| k products as the right rows; the
    # conjugation rows and the cyclic classes then form only the powers of
    # each cyclic subgroup, one product per power
    composes = _count_calls(monkeypatch, stacky.perms, "_compose")
    G = symmetric_group(5)
    G._right_rows
    G._conjugation_rows
    cyclic_subgroup_classes(G, 0)
    monkeypatch.undo()
    subgroups = oracles.cyclic_subgroups({g.images for g in G.elements})
    assert sum(map(len, subgroups)) == 231
    assert composes[0] == G.order * len(G.generators) + 231 == 471


def test_orbit_count_examples():
    assert _count_orbits([g.images for g in cyclic_group(2).elements]) == 1
    assert _count_orbits([g.images for g in symmetric_group(3).elements]) == 1
    # the trivial group, one identity row, acting trivially on 7 points
    assert _count_orbits([tuple(range(7))]) == 7


def test_orbit_count_matches_oracle_on_coset_actions():
    rng = random.Random(7)
    for G in (symmetric_group(3), dihedral_group(4), alternating_group(4)):
        g = rng.choice(G.elements)
        sub = set()
        x = G.identity
        while x not in sub:
            sub.add(x)
            x = x * g
        cosets = sorted({tuple(sorted((h * s for s in sub))) for h in G.elements})
        idx = {c: i for i, c in enumerate(cosets)}

        def act(y, p, cosets=cosets, idx=idx):
            rep = cosets[p][0]
            moved = y * rep
            return next(idx[c] for c in cosets if moved in c)

        n = len(cosets)
        rows = [[act(h, p) for p in range(n)] for h in G.elements]
        expected = len(oracles.orbits([h for h in G.elements], act, n))
        assert _count_orbits(rows) == expected == 1
        assert oracles.burnside([h for h in G.elements], act, n) == 1


def test_closure_property_random_groups():
    for G in (symmetric_group(3), quaternion_group(), cyclic_group(6),
              dihedral_group(3), alternating_group(4)):
        elems = set(G.elements)
        assert G.identity in elems
        for a in G.elements:
            assert a.inverse() in elems
            for b in G.elements:
                assert a * b in elems


def test_named_families_have_expected_orders():
    assert [cyclic_group(n).order for n in (1, 2, 5, 12)] == [1, 2, 5, 12]
    assert [symmetric_group(n).order for n in (2, 3, 4)] == [2, 6, 24]
    assert [alternating_group(n).order for n in (3, 4)] == [3, 12]
    assert [dihedral_group(n).order for n in (1, 2, 3, 6)] == [2, 4, 6, 12]
    assert quaternion_group().order == 8
    q8 = quaternion_group()
    assert sorted(g.order() for g in q8.elements) == [1, 2, 4, 4, 4, 4, 4, 4]
    GH = direct_product(symmetric_group(3), cyclic_group(2))
    assert GH.order == 12 and GH.degree == 5
