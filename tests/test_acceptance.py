"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything is exact; there are no tolerances anywhere.  The randomized suite
inputs are generated once per session and shared across the criteria that
quantify over them.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from oracles import Cyc
from stacky.chars import character_table, rep_ring
from stacky.cli import cmd_motive_bh, cmd_motive_curve, cmd_motive_gerbe, \
    cmd_motive_quotient, load_document, render_json
from stacky.corresp import Correspondence, compose, eye, mat_mul, matrix, rref, \
    split_idempotent
from stacky.decomp import (
    GerbeDatum,
    bh_motive,
    gerbe_motive,
    gerbe_rset,
    inertial_quotient_motive,
    orbifold_curve_motive,
    product_with_point_model,
    quotient_motive,
)
from stacky.motives import Atom, EquivariantModel, FixedLocus, Motive, chow_dim
from stacky.perms import (
    Perm,
    alternating_group,
    cyclic_group,
    cyclic_subgroup_classes,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from stacky.verify import (
    check_inertia_dimension,
    check_kunneth,
    standard_splitting_reports,
    suite_inputs,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

CRITERION_GROUPS = [
    ("Z2", cyclic_group(2), 2),
    ("S3", symmetric_group(3), 3),
    ("A4", alternating_group(4), 4),
    ("S4", symmetric_group(4), 5),
    ("Q8", quaternion_group(), 5),
    ("D4", dihedral_group(4), 5),
]

SUITE_SEED = 2024
SUITE_COUNT = 100


@pytest.fixture(scope="module")
def suite():
    return list(suite_inputs(SUITE_SEED, SUITE_COUNT))


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_bh_ranks():
    ok = True
    for name, G, expected in CRITERION_GROUPS:
        via_classes = len(oracles.conj_classes({g.images for g in G.elements}))
        via_chars = bh_motive(G, 0).rank  # asserts the character-orbit route inside
        via_table = character_table(G).rank
        ok = ok and via_classes == via_chars == via_table == expected
    _report(1, "BH ranks by three routes", ok)
    assert ok


def test_criterion_2_product_structure():
    T2 = character_table(cyclic_group(2))
    n2 = rep_ring(T2).constants
    ok = n2[1][1][0] == 1 and n2[1][1][1] == 0

    T3 = character_table(symmetric_group(3))
    n3 = rep_ring(T3).constants
    std = T3.degrees.index(2)
    ok = ok and tuple(n3[std][std]) == tuple(1 for _ in range(3))

    for name, G, _ in CRITERION_GROUPS:
        T = character_table(G)
        n = rep_ring(T).constants
        r = T.rank
        for i in range(r):
            for j in range(r):
                for ci in range(r):
                    acc = Cyc.of(0)
                    for k in range(r):
                        if n[i][j][k]:
                            acc = acc + Cyc.of(T.rows[k][ci]) * n[i][j][k]
                    ok = ok and acc == Cyc.of(T.rows[i][ci]) * T.rows[j][ci]
    _report(2, "representation-ring product structure", ok)
    assert ok


def test_criterion_3_orbifold_dual_route():
    C3 = cyclic_group(3)
    g = C3.generators[0]
    X = EquivariantModel(C3, (0, 1), [Perm([0, 1])], kind="cells",
                         fixed_loci=[FixedLocus(g, (0, 0))])
    via_model = inertial_quotient_motive(X, 0).motive
    via_curve = orbifold_curve_motive(0, [3, 3]).motive
    expected = Motive.of([(Atom.unit(), 0, 5), (Atom.unit(), 1, 1)])
    ok = via_model == via_curve == expected
    ok = ok and chow_dim(via_model, 0) == chow_dim(via_curve, 0)
    ok = ok and chow_dim(via_model, 0).tate_dim == 5
    ok = ok and chow_dim(via_model, 1).tate_dim == 1
    _report(3, "orbifold curve dual route", ok)
    assert ok


def test_criterion_4_inertia_double_count(suite):
    ok = len(suite) >= 100
    for label, X, H, p in suite:
        rep = check_inertia_dimension(X, p)
        ok = ok and rep.passed
    _report(4, "inertia rank double count on randomized suite", ok)
    assert ok


def test_criterion_5_kunneth(suite):
    ok = True
    for label, X, H, p in suite:
        rep = check_kunneth(X, H, p)
        ok = ok and rep.passed
    for _, G, rg in CRITERION_GROUPS:
        for _, H, rh in CRITERION_GROUPS:
            prod = product_with_point_model(EquivariantModel.point(G), H)
            ranks = inertial_quotient_motive(prod, 0).ranks_by_twist()
            ok = ok and ranks == {0: rg * rh}
    _report(5, "Kunneth rank multiplicativity", ok)
    assert ok


def test_criterion_6_direct_factor_law(suite):
    ok = True
    for label, X, H, p in suite:
        res = inertial_quotient_motive(X, p)
        coarse = quotient_motive(X)
        ok = ok and res.trivial_component() == coarse
        free = all(cc.component.fixed_model.size == 0
                   for cc in res.components if cc.component.cyclic.order > 1)
        if free:
            ok = ok and res.motive == coarse
    _report(6, "direct factor law", ok)
    assert ok


def test_criterion_7_splitting_certificates():
    ok = all(r.passed for r in standard_splitting_reports(12))
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        lower = [[Fraction(rng.randint(-2, 2)) if i > j else Fraction(1 if i == j else 0)
                  for j in range(n)] for i in range(n)]
        upper = [[Fraction(rng.randint(-2, 2)) if i < j else Fraction(1 if i == j else 0)
                  for j in range(n)] for i in range(n)]
        S = mat_mul(matrix(lower), matrix(upper))
        aug, pivots = rref(tuple(tuple(list(r) + list(i)) for r, i in zip(S, eye(n))))
        Sinv = tuple(tuple(row[n:]) for row in aug)
        D = matrix([[1 if (i == j and i < k) else 0 for j in range(n)] for i in range(n)])
        p = Correspondence.single_twist(0, mat_mul(mat_mul(S, D), Sinv))
        factor = split_idempotent(p)
        ok = ok and compose(factor.inclusion, factor.retraction) == p
        ok = ok and compose(factor.retraction, factor.inclusion) == \
            Correspondence.identity(factor.image)
        ok = ok and factor.image.total_unit_multiplicity() == k
    _report(7, "splitting certificates", ok)
    assert ok


def test_criterion_8_characteristic_filter():
    S3 = symmetric_group(3)
    A4 = alternating_group(4)
    ok = len(cyclic_subgroup_classes(S3, 3)) == 2
    ok = ok and bh_motive(S3, 0).rank == 3 and bh_motive(S3, 3).rank == 2
    ok = ok and bh_motive(A4, 0).rank == 4 and bh_motive(A4, 3).rank == 2
    orders = sorted(c.order for c in cyclic_subgroup_classes(A4, 3))
    ok = ok and orders == [1, 2]
    _report(8, "characteristic filter", ok)
    assert ok


def test_criterion_9_gerbe_example():
    H = cyclic_group(3)
    base = Motive.point()
    inv = H.generators[0].inverse()
    twisted = gerbe_motive(GerbeDatum(H, ((inv,),), base, "X"))
    expected = base + Motive.of([(Atom.cover("X", 2), 0, 1)])
    ok = twisted.motive == expected
    plain = gerbe_motive(GerbeDatum(H, (), base, "X"))
    ok = ok and plain.motive == Motive.point(3)
    rset = gerbe_rset(H, 0, ())
    ok = ok and rset.size == 3 == bh_motive(H, 0).rank
    _report(9, "gerbe with inversion monodromy", ok)
    assert ok


def test_criterion_10_determinism():
    docs = {
        "s3": (cmd_motive_bh, load_document(str(SAMPLES / "s3_quotient.json"))),
        "s3q": (cmd_motive_quotient, load_document(str(SAMPLES / "s3_quotient.json"))),
        "gerbe": (cmd_motive_gerbe, load_document(str(SAMPLES / "z3_gerbe.json"))),
        "curve": (cmd_motive_quotient, load_document(str(SAMPLES / "curve_0_33.json"))),
    }

    def render(key: str) -> str:
        fn, doc = docs[key]
        return render_json(fn(doc))

    serial = {key: [render(key) for _ in range(2)] for key in docs}
    ok = all(outs[0] == outs[1] for outs in serial.values())

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [(key, pool.submit(render, key)) for key in docs for _ in range(3)]
        for key, fut in futures:
            ok = ok and fut.result() == serial[key][0]

    flags = cmd_motive_curve(0, (3, 3))
    ok = ok and render_json(flags) == render_json(cmd_motive_curve(0, (3, 3)))
    ok = ok and json.loads(render_json(flags))["poincare"] == "5 + L"
    _report(10, "deterministic byte-identical output", ok)
    assert ok
