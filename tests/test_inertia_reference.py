"""Inertia components against the old standalone route.

Each component's fixed model takes the parent's verified action at a
normalizer or centralizer without checking it again, on the cells its class
fixes.  The reference here rebuilds that subgroup as a standalone group
(greedy generator reduction, then a fresh closure) and replays the
component's generator images, restricted to those cells, through the checked
``EquivariantModel`` constructor, whose ``extend_action`` re-verifies the
homomorphism.  Every element must then act as the component's model says,
and both models must have the same quotient motive.

A property test then pins the two routes to the refined ranks against each
other on random coset models of the seeded groups: the cyclotomic route
(normalizer orbits on cells x characters) and the element-inertia route.
"""

from __future__ import annotations

import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacky.cli import load_document
from stacky.decomp import (
    cyclotomic_inertia,
    inertia,
    inertia_ranks_by_twist,
    inertial_quotient_motive,
    quotient_motive,
)
from stacky.motives import EquivariantModel
from stacky.perms import Perm, Subgroup, generate_group, reduce_generators
from stacky.verify import random_coset_model
from test_perm_properties import CASES

ROOT = Path(__file__).resolve().parent.parent
CELL_DOCS = (ROOT / "tests" / "golden" / "cli_docs" / "s4_cells_noncanonical.json",
             ROOT / "sample_inputs" / "curve_0_33.json")


def restrict(row: tuple[int, ...], cells) -> tuple[int, ...]:
    """A row on the positions of cells it preserves: cells[i] goes to cells[row'[i]]."""
    pos = {c: i for i, c in enumerate(cells)}
    return tuple(pos[row[c]] for c in cells)


def reference_model(sub: Subgroup, model: EquivariantModel) -> EquivariantModel:
    """The component model as the old route built it: a regenerated group
    and the action, restricted to the model's cells, replayed and checked
    from its generator images."""
    degree = sub.degree
    H = generate_group(degree, reduce_generators(sub.elements, degree))
    return EquivariantModel(H, model.dims, [
        Perm(restrict(model.action_of(g).images, model.cells)) for g in H.generators],
        kind="cells")


def assert_matches_reference(sub: Subgroup, model: EquivariantModel) -> None:
    assert model.group is sub
    assert model.kind == "cells" and model.generator_images == ()
    ref = reference_model(sub, model)
    assert ref.group.elements == sub.elements
    assert ref.dims == model.dims and ref.size == model.size
    assert {d: tuple(map(model.cells.__getitem__, cells))
            for d, cells in ref.cells_of_dim().items()} == model.cells_of_dim()
    # both hold rows aligned with the same element list
    assert tuple(restrict(row, model.cells) for row in model.element_actions) == \
        ref.element_actions
    # the restricted model acts through the Subgroup as the standalone one does
    assert quotient_motive(model) == quotient_motive(ref)


def check_model(X: EquivariantModel) -> None:
    for p in (0, 2, 3):
        for comp in cyclotomic_inertia(X, p):
            assert_matches_reference(comp.cyclic.normalizer, comp.fixed_model)
        for comp in inertia(X, p):
            assert_matches_reference(comp.centralizer, comp.fixed_model)


def _models(index: int, degree: int, gens: list[tuple[int, ...]]):
    G = generate_group(degree, [Perm(g) for g in gens])
    yield EquivariantModel.hset(G, degree, G.generators)
    # building coset models of S6-sized groups takes seconds; points suffice there
    if G.order <= 120:
        yield random_coset_model(random.Random(index), G, max_points=12)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_seeded_components_match_the_reference(index):
    degree, gens = CASES[index]
    for X in _models(index, degree, gens):
        check_model(X)


@pytest.mark.parametrize("path", CELL_DOCS, ids=lambda p: p.name)
def test_cell_model_components_match_the_reference(path):
    X = load_document(str(path)).model
    assert X.kind == "cells" and X.fixed_loci
    check_model(X)


@cache
def _group(index: int):
    degree, gens = CASES[index]
    return generate_group(degree, [Perm(g) for g in gens])


# the seeded groups of order at most 120, each generated once
SMALL = [index for index in range(len(CASES)) if _group(index).order <= 120]


@settings(max_examples=100)
@given(st.sampled_from(SMALL), st.integers(0, 2**32), st.sampled_from([0, 2, 3]))
def test_the_two_inertia_routes_agree_on_random_models(index, seed, p):
    X = random_coset_model(random.Random(seed), _group(index))
    refined = inertial_quotient_motive(X, p)
    assert refined.ranks_by_twist() == inertia_ranks_by_twist(X, p)
    assert refined.trivial_component() == quotient_motive(X)
