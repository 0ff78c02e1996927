"""Motive algebra tests: ring axioms on Tate parts, invariants, models."""

from __future__ import annotations

import random

import pytest

import oracles
from stacky.decomp import quotient_motive
from stacky.errors import InconsistentActionError, OpaqueTensorError
from stacky.motives import (
    UNIT,
    Atom,
    EquivariantModel,
    Motive,
    chow_dim,
    direct_sum,
    poincare_polynomial,
    tensor,
)
from stacky.perms import Perm, cyclic_group, symmetric_group, trivial_group
from stacky.verify import random_coset_model


def units(*pairs: tuple[int, int]) -> Motive:
    """Motive with unit terms (twist, mult)."""
    return Motive.of([(UNIT, t, m) for t, m in pairs])


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom.cover("X", 1)
    with pytest.raises(ValueError):
        Atom.opaque("")
    with pytest.raises(ValueError):
        Atom("weird")
    assert Atom.h1(2).render() == "[H1_2]"
    assert Atom.cover("X", 2).render() == "[Cover(X,2)]"


def test_direct_sum_merges_and_is_monoid():
    one = units((0, 1))
    L = units((1, 1))
    assert direct_sum(direct_sum(one, L), one) == units((0, 2), (1, 1))
    assert direct_sum(one, Motive.zero()) == one
    assert direct_sum(units((0, 2)), units((0, 3))) == units((0, 5))
    a, b = units((0, 1), (2, 3)), units((1, 4))
    assert direct_sum(a, b) == direct_sum(b, a)


def test_tensor_examples():
    one_plus_L = units((0, 1), (1, 1))
    sq = tensor(one_plus_L, one_plus_L)
    assert sq == units((0, 1), (1, 2), (2, 1))
    M = units((0, 3), (2, 1))
    assert tensor(M, Motive.point()) == M
    curve = Motive.of([(UNIT, 0, 1), (Atom.h1(1), 0, 1), (UNIT, 1, 1)])
    shifted = tensor(curve, Motive.lefschetz())
    assert shifted == Motive.of([(UNIT, 1, 1), (Atom.h1(1), 1, 1), (UNIT, 2, 1)])


def test_tensor_rejects_double_opaque():
    curve = Motive.of([(Atom.h1(1), 0, 1)])
    cover = Motive.of([(Atom.cover("X", 2), 0, 1)])
    with pytest.raises(OpaqueTensorError):
        tensor(curve, cover)


def test_ring_axioms_on_random_tate_motives():
    rng = random.Random(3)

    def rand_motive():
        return units(*[(rng.randint(0, 3), rng.randint(1, 3))
                       for _ in range(rng.randint(0, 3))])

    for _ in range(60):
        a, b, c = rand_motive(), rand_motive(), rand_motive()
        assert direct_sum(a, b) == direct_sum(b, a)
        assert tensor(a, b) == tensor(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
        assert tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))
        assert tensor(a, Motive.point()) == a
        assert direct_sum(a, Motive.zero()) == a


def test_poincare_polynomial():
    assert poincare_polynomial(units((0, 4), (1, 1))) == "4 + L"
    curve = Motive.of([(UNIT, 0, 1), (Atom.h1(1), 0, 1), (UNIT, 1, 1)])
    assert poincare_polynomial(curve) == "1 + [H1_1] + L"
    assert poincare_polynomial(Motive.zero()) == "0"
    assert poincare_polynomial(units((1, 2), (3, 1))) == "2*L + L^3"
    twisted = Motive.of([(Atom.cover("X", 2), 1, 1)])
    assert poincare_polynomial(twisted) == "[Cover(X,2)]*L"


def test_chow_dim():
    M = units((0, 4), (1, 1))
    assert chow_dim(M, 0).tate_dim == 4 and chow_dim(M, 0).opaque_terms == ()
    assert chow_dim(M, 1).tate_dim == 1
    curve = Motive.of([(UNIT, 0, 1), (Atom.h1(1), 0, 1), (UNIT, 1, 1)])
    res = chow_dim(curve, 1)
    assert res.tate_dim == 1
    assert res.opaque_terms == ((Atom.h1(1), 0),)
    # summed Tate dimensions recover the total unit multiplicity
    assert sum(chow_dim(M, m).tate_dim for m in M.twists()) == M.total_unit_multiplicity()


def test_invariants_examples():
    C2 = cyclic_group(2)
    X = EquivariantModel.hset(C2, 2, [Perm([1, 0])])
    assert quotient_motive(X) == Motive.point()

    T = trivial_group()
    Y = EquivariantModel(T, (0, 1), [], kind="cells")
    assert quotient_motive(Y) == units((0, 1), (1, 1))

    S3 = symmetric_group(3)
    Z = EquivariantModel.hset(S3, 3, list(S3.generators))
    assert quotient_motive(Z) == Motive.point()

    # three Lefschetz copies permuted naturally collapse to one
    W = EquivariantModel(S3, (1, 1, 1), list(S3.generators), kind="cells")
    assert quotient_motive(W) == Motive.lefschetz()


def test_invariants_matches_orbit_count_on_random_models():
    rng = random.Random(5)
    S3 = symmetric_group(3)
    for _ in range(20):
        # random action: S3 on 6 points via two blocks of its natural action
        imgs = []
        shuffle = list(range(3))
        rng.shuffle(shuffle)
        for g in S3.generators:
            imgs.append(Perm([g(p) for p in range(3)] +
                             [3 + shuffle.index(g(shuffle[p - 3])) for p in range(3, 6)]))
        X = EquivariantModel.hset(S3, 6, imgs)
        oracle = len(oracles.orbits([g for g in S3.elements],
                                    lambda g, p: X.action_of(g)(p), 6))
        assert quotient_motive(X).unit_multiplicity(0) == oracle


def test_model_cells_by_dimension():
    T = trivial_group()
    X = EquivariantModel(T, (0, 1), [], kind="cells")
    assert X.cells_of_dim() == {0: (0,), 1: (1,)}


def test_model_rejects_dimension_moving_action():
    C2 = cyclic_group(2)
    with pytest.raises(InconsistentActionError):
        EquivariantModel(C2, (0, 1), [Perm([1, 0])], kind="cells")


def test_model_rejects_non_action():
    S3 = symmetric_group(3)
    # the 3-cycle cannot act with order 2
    with pytest.raises(InconsistentActionError):
        EquivariantModel.hset(S3, 2, [Perm([0, 1]), Perm([1, 0])])


def test_invariants_of_trivial_action_is_identity():
    T = trivial_group()
    M = EquivariantModel(T, (0, 0, 1, 2), [], kind="cells")
    # h(M) has one Tate summand per cell, at the cell's dimension
    assert quotient_motive(M) == units((0, 2), (1, 1), (2, 1))


def test_invariants_never_increase_multiplicity():
    rng = random.Random(9)
    S3 = symmetric_group(3)
    for _ in range(10):
        size = rng.randint(1, 4)
        # random transitive-or-not actions built from the natural one on blocks
        imgs = []
        for g in S3.generators:
            base = [g(p) if p < 3 else p for p in range(size)] if size >= 3 \
                else list(range(size))
            imgs.append(Perm(base))
        X = EquivariantModel.hset(S3, size, imgs)
        cells = X.cells_of_dim()
        for (atom, twist, mult) in quotient_motive(X).terms:
            assert mult <= len(cells[twist])


def test_quotient_motive_forms_and_validates_no_perm(monkeypatch):
    # the orbits are counted on the verified action's own rows: no Perm
    # product and no validating constructor
    X = random_coset_model(random.Random(3), symmetric_group(5))
    counts = {"__mul__": 0, "__init__": 0}
    for name in counts:
        def counting(*args, name=name, inner=getattr(Perm, name)):
            counts[name] += 1
            return inner(*args)
        monkeypatch.setattr(Perm, name, counting)
    coarse = quotient_motive(X)
    monkeypatch.undo()
    assert counts == {"__mul__": 0, "__init__": 0}
    assert {t: m for _, t, m in coarse.terms} == oracles.quotient_ranks(X)


def test_coset_model_forms_no_perm_products(monkeypatch):
    # with the group's rows and word tree built, extending an action composes
    # image tuples only: no Perm product in the replay or the check
    G = symmetric_group(5)
    X = random_coset_model(random.Random(3), G)
    products = 0
    mul = Perm.__mul__

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    monkeypatch.setattr(Perm, "__mul__", counting_mul)
    Y = EquivariantModel.hset(G, X.size, X.generator_images)
    monkeypatch.undo()
    assert X.size > 1 and products == 0
    assert Y.element_actions == X.element_actions
