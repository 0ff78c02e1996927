"""Verification-oracle tests: report purity, seeded suite, failure surfacing."""

from __future__ import annotations

import pytest

from stacky import corresp, verify
from stacky.corresp import Correspondence
from stacky.errors import InternalError, NotTotalError
from stacky.motives import EquivariantModel
from stacky.perms import (
    FiniteGroup,
    Perm,
    cyclic_group,
    cyclic_subgroup_classes,
    dihedral_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from stacky.verify import (
    check_degree_splitting,
    check_inertia_dimension,
    check_kunneth,
    check_rep_ring_vs_classes,
    run_suite,
    standard_splitting_reports,
    suite_inputs,
)


def s3_on_points():
    S3 = symmetric_group(3)
    return EquivariantModel.hset(S3, 3, list(S3.generators))


def test_inertia_dimension_examples():
    rep = check_inertia_dimension(s3_on_points(), 0)
    assert rep.passed and rep.lhs == rep.rhs == '{"0":2}'
    # free action: only the trivial component survives
    C2 = cyclic_group(2)
    free = EquivariantModel.hset(C2, 2, [Perm([1, 0])])
    rep = check_inertia_dimension(free, 0)
    assert rep.passed and rep.lhs == '{"0":1}'
    T = trivial_group()
    rep = check_inertia_dimension(EquivariantModel.hset(T, 5, []), 0)
    assert rep.passed and rep.lhs == '{"0":5}'


def test_kunneth_examples():
    C2 = cyclic_group(2)
    bg = EquivariantModel.point(C2)
    rep = check_kunneth(bg, C2, 0)
    assert rep.passed and rep.lhs == '{"0":4}'
    rep = check_kunneth(s3_on_points(), C2, 0)
    assert rep.passed and rep.lhs == '{"0":4}'
    rep = check_kunneth(s3_on_points(), trivial_group(), 0)
    assert rep.passed


def test_rep_ring_check():
    for G in (symmetric_group(3), cyclic_group(2), trivial_group(),
              quaternion_group(), dihedral_group(4)):
        assert check_rep_ring_vs_classes(G).passed


def test_degree_splitting_check():
    assert check_degree_splitting([0, 0], 2, 1, 2).passed
    assert check_degree_splitting([0, 0, 1, 1, 2, 2], 6, 3, 2).passed
    assert check_degree_splitting([0, 1, 2], 3, 3, 1).passed
    # a wrong degree claim is reported, not raised
    rep = check_degree_splitting([0, 0], 2, 1, 1)
    assert not rep.passed
    rep = check_degree_splitting([0, 0], 2, 1, 2)
    assert (rep.lhs, rep.rhs) == ("pushforward o pullback = 2*id", "round trips hold")


def test_degree_splitting_reports_unequal_fibers():
    rep = check_degree_splitting([0, 0, 1], 3, 2, 2)
    assert (rep.check_name, rep.lhs, rep.rhs, rep.passed) == (
        "splitting", "fiber sizes [2, 1]", "claimed degree 2", False)


@pytest.mark.parametrize("f", [[5, 0], [-1, -1, 0, 0]])
def test_degree_splitting_refuses_a_map_out_of_range(f):
    # the map is checked before its fibers are counted: a value past the end
    # cannot raise IndexError, and a negative one cannot land in the last fiber
    with pytest.raises(NotTotalError, match=r"^map must send all \d points into 0\.\.1$"):
        check_degree_splitting(f, len(f), 2, 1)


def test_degree_splitting_raises_when_the_certificate_fails(monkeypatch):
    # the verdict comes from splitting_certificate: with the pushforward
    # doubled, (1/m) * pushforward o pullback is 2 * id, and its left-inverse
    # check raises instead of a failing report being returned
    graphs = corresp.graph_correspondences

    def doubled_push(f, n, k):
        pull, push = graphs(f, n, k)
        blocks = {t: tuple(tuple(2 * x for x in row) for row in b) for t, b in push.blocks.items()}
        return pull, Correspondence(push.source, push.target, blocks)

    monkeypatch.setattr(corresp, "graph_correspondences", doubled_push)
    with pytest.raises(RuntimeError,
                       match="^internal error: scaled pushforward is not a left inverse$"):
        check_degree_splitting([0, 0, 1, 1], 4, 2, 2)


def test_standard_splitting_covers_all_shapes():
    reports = standard_splitting_reports(12)
    assert all(r.passed for r in reports)
    assert len(reports) == sum(12 // k for k in range(1, 13))


def test_reports_are_reproducible():
    a = check_inertia_dimension(s3_on_points(), 0)
    b = check_inertia_dimension(s3_on_points(), 0)
    assert a == b


def test_suite_is_deterministic_and_passes():
    verify._built.cache_clear()  # the first run builds its groups, the second reuses them
    first = run_suite(seed=11, count=15)
    second = run_suite(seed=11, count=15)
    assert first == second
    assert all(r.passed for r in first)
    assert len(first) == 30
    # seed appears in the digest for reproducibility
    assert "seed=11" in first[0].input_digest


def _suite_dicts(seeds) -> list[dict]:
    return [r.to_dict() for s in seeds for r in run_suite(s, 1)]


def test_suite_groups_are_built_once_per_process(monkeypatch):
    # the pool groups and the products on them are kept across run_suite
    # calls: a second pass over the same seeds builds no group and reports
    # the same, checks included
    built = [0]
    real = FiniteGroup.__init__

    def counting(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    verify._built.cache_clear()
    first = _suite_dicts(range(20))
    cold, built[0] = built[0], 0
    second = _suite_dicts(range(20))
    monkeypatch.undo()
    assert second == first and all(r["pass"] for r in first)
    assert cold > 0 and built[0] == 0


def test_a_tampered_public_group_does_not_reach_the_suite():
    # the named families build a new group on every call, so a test that
    # tampers with one leaves the suite's own S3 as it was
    seeds = (29, 30, 35)  # each draws S3 as its model's group
    assert all("group=S3" in next(suite_inputs(s, 1))[0] for s in seeds)
    # whereas suite_inputs hands out the suite's kept S3 on every call, which
    # is why its groups are read-only and a tampering test builds its own
    assert next(suite_inputs(29, 1))[1].group is next(suite_inputs(29, 1))[1].group
    before = _suite_dicts(seeds)
    S3 = symmetric_group(3)
    assert S3 is not symmetric_group(3)
    c3 = next(c for c in cyclic_subgroup_classes(S3, 0) if c.order == 3)
    object.__setattr__(c3, "exponent_row", tuple(1 if a else 0 for a in c3.exponent_row))
    with pytest.raises(InternalError):
        check_inertia_dimension(EquivariantModel.point(S3))
    after = _suite_dicts(seeds)
    assert after == before and all(r["pass"] for r in after)


def test_suite_inputs_shapes():
    for label, X, H, p in suite_inputs(seed=3, count=25):
        assert X.size <= 20
        assert p in (0, 2, 3)
        assert X.group.order >= 1 and H.order >= 1


def test_direct_factor_law_on_suite_inputs():
    from stacky.decomp import inertial_quotient_motive, quotient_motive

    for label, X, H, p in suite_inputs(seed=5, count=25):
        res = inertial_quotient_motive(X, p)
        assert res.trivial_component() == quotient_motive(X), label
        nontrivial_fixed = any(
            cc.component.cyclic.order > 1 and cc.component.fixed_model.size > 0
            for cc in res.components)
        if not nontrivial_fixed:
            assert res.motive == quotient_motive(X), label
