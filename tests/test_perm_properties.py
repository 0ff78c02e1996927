"""Seeded property tests of the permutation-group core against tests/oracles.py.

Thirty random generator sets of degree at most 6 are drawn from a fixed seed
(stdlib random, so no extra dependency); every group they generate is
checked against the oracles' raw-tuple closures and all-pairs scans.
"""

from __future__ import annotations

import math
import random

import pytest

import oracles
from stacky.errors import GroupTooLargeError, NonBijectionError
from stacky.perms import (
    Perm,
    conjugacy_classes,
    cyclic_subgroup_classes,
    generate_group,
    orbit,
    powers,
)


def _random_generator_sets(seed: int = 20260, count: int = 30):
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        yield degree, gens


CASES = list(_random_generator_sets())


def _ids(case):
    degree, gens = case
    return f"deg{degree}:" + "/".join("".join(map(str, g)) for g in gens)


@pytest.fixture(scope="module", params=CASES, ids=[_ids(c) for c in CASES])
def group(request):
    degree, gens = request.param
    G = generate_group(degree, [Perm(g) for g in gens])
    return G, oracles.closure(degree, gens)


def test_orbit_and_generate_group_match_the_closure(group):
    G, elems = group
    assert {g.images for g in G.elements} == elems
    words = orbit([G.identity], G.generators, Perm.__mul__)
    assert set(words) == set(G.elements)
    for x, word in words.items():
        acc = tuple(range(G.degree))
        for i in word:
            acc = oracles.compose(acc, G.generators[i].images)
        assert acc == x.images
    # breadth first: words come out in order of length
    assert list(words.values()) == sorted(words.values(), key=len)


def test_words_are_a_tree_in_discovery_order(group):
    # the conjugates and the class sums walk this tree, and extend_action defines
    # each action on its edge: each element's word is an earlier element's word
    # and one generator more
    G, _ = group
    words = list(G.words.values())
    assert words[0] == () and words == sorted(words, key=len)
    earlier = set()
    for w in words:
        assert not w or w[:-1] in earlier
        earlier.add(w)
    for i, parent, s in G._word_tree:
        assert G.elements[i] == G.elements[parent] * G.generators[s]
        assert G._right_rows[s][parent] == i
    assert len(G._word_tree) == G.order - 1


def test_conjugacy_classes_match_the_oracle(group):
    G, elems = group
    ours = {frozenset(x.images for x in c.members) for c in conjugacy_classes(G)}
    assert ours == {frozenset(c) for c in oracles.conj_classes(elems)}


def test_cyclic_subgroup_classes_match_the_oracle(group):
    G, elems = group
    oracle = [frozenset(c) for c in
              oracles.subgroup_conj_classes(elems, oracles.cyclic_subgroups(elems))]
    # the classes are computed once per group, whichever p is asked for first
    listings = []
    for order in ((3, 0, 2), (0, 2, 3)):
        fresh = generate_group(G.degree, G.generators)
        listing = {}
        for p in order:
            classes = cyclic_subgroup_classes(fresh, p)
            kept = [c for c in oracle if p == 0 or math.gcd(len(next(iter(c))), p) == 1]
            assert len(classes) == len(kept)
            ours = []
            for c in classes:
                sub = frozenset(x.images for x in c.subgroup_elements)
                ours.append(next(k for k in kept if sub in k))
                assert sub == frozenset(x.images for x in powers(c.generator))
            assert set(ours) == set(kept)
            listing[p] = [(c.generator, c.subgroup_elements, c.normalizer.elements)
                          for c in classes]
        listings.append(listing)
    assert listings[0] == listings[1]


def test_canonical_conjugate_is_the_least_of_the_class(group):
    # every cyclic subgroup maps to the class whose subgroup is its least
    # conjugate by sorted image tuples, and each class's subgroup to the class
    G, elems = group
    classes = cyclic_subgroup_classes(G, 0)
    least = {sub: min(cls, key=sorted)
             for cls in oracles.subgroup_conj_classes(elems, oracles.cyclic_subgroups(elems))
             for sub in cls}
    subs = set(G._cyclic_subgroups.values())
    assert set(G._cyclic_classes[1]) == subs
    assert {frozenset(G.elements[i].images for i in pw) for pw in subs} == set(least)
    for pw in subs:
        c = G._cyclic_classes[1][pw]
        canon = frozenset(x.images for x in c.subgroup_elements)
        assert canon == least[frozenset(G.elements[i].images for i in pw)]
    for c in classes:
        assert G._cyclic_classes[1][G._cyclic_subgroups[G.index[c.generator]]] is c


def test_normalizer_orders_match_an_all_pairs_scan(group):
    G, elems = group
    # the normalizer of each cyclic class's subgroup
    for c in cyclic_subgroup_classes(G, 0):
        N, sub = c.normalizer, {x.images for x in c.subgroup_elements}
        direct = {x for x in elems
                  if {oracles.compose(oracles.compose(x, t), oracles.invert(x))
                      for t in sub} == sub}
        assert N.order == len(direct)
        assert {n.images for n in N.elements} == direct
        assert all(n in N for n in N.elements)


def test_orbit_cap_raises_past_the_limit():
    gens = [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])]
    assert len(orbit([Perm.identity(4)], gens, Perm.__mul__, cap=24)) == 24
    with pytest.raises(GroupTooLargeError, match="closure exceeds element cap 23"):
        orbit([Perm.identity(4)], gens, Perm.__mul__, cap=23)


def test_perm_validation_survives_the_trusted_constructor():
    with pytest.raises(NonBijectionError):
        Perm([0, 0])
    with pytest.raises(NonBijectionError, match="different degrees"):
        Perm([1, 0]) * Perm([0, 2, 1])
    a = Perm([1, 2, 0])
    assert a * a.inverse() == Perm.identity(3) == Perm([0, 1, 2])
    assert hash(a * a) == hash(Perm([2, 0, 1]))
