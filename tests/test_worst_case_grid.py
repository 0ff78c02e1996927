"""Worst-case legal groups inside the caps, through the commands in process.

An elementary abelian group has one class of cyclic subgroups per element, so
any work per class that grows with |G| shows here as |G|^2.  C2^10 is ten
disjoint transpositions on 20 points; S3 x C2^3 adds a non-abelian factor.  The
class count and every normalizer order are checked against a scan of the whole
group (tests/oracles.py), whose elements are built as the direct product.  On
its point model, C2^k's refined motive has a closed form, k 2^(k-1) in twist 0,
checked at k = 8 and, through all three inertia commands, at k = 10.  D4, Q8,
Q8 x C2^2 and S3 x C2^3 have proper nontrivial centers, so their central and
non-central classes take different routes; their refined ranks are compared with
the brute-force oracles.refined_ranks.  Q8 x C2^k has normal cyclic subgroups
that are not central, 384 of its 640 classes at k = 7, each counted on its
centralizer's rows; there the two inertia routes must agree.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time

import pytest

import oracles
from stacky.cli import cmd_group, main, parse_document


def _swap(degree: int, a: int) -> list[int]:
    images = list(range(degree))
    images[a], images[a + 1] = a + 1, a
    return images


C2 = [(0, 1), (1, 0)]
GRID = {
    "C2^10": (20, [_swap(20, 2 * i) for i in range(10)], [C2] * 10),
    "S3xC2^3": (9, [_swap(9, 0), [1, 2, 0, 3, 4, 5, 6, 7, 8]] + [_swap(9, 3 + 2 * i)
                                                                for i in range(3)],
                [list(itertools.permutations(range(3)))] + [C2] * 3),
}


@pytest.mark.parametrize("name", GRID)
def test_group_command_normalizer_orders_match_a_scan(name):
    degree, gens, factors = GRID[name]
    out = cmd_group(parse_document({"group": {"degree": degree, "generators": gens}}), False)
    elems = oracles.direct_product_elements(factors)
    assert out["order"] == len(elems)
    subgroups = {H: next(x for x in H if oracles.elem_order(x) == len(H))
                 for H in oracles.cyclic_subgroups(set(elems))}
    orders = dict(zip(subgroups, oracles.cyclic_normalizer_orders(elems, subgroups.values())))
    # orbit-stabilizer: a class holds |G|/|N(H)| conjugates H, so the |N(H)| sum to |G| per class
    classes = out["cyclicClasses"]
    assert sum(orders.values()) == len(classes) * len(elems)
    for c in classes:
        (H,) = oracles.cyclic_subgroups({tuple(c["generator"])})
        assert c["normalizerOrder"] == orders[H]


def _c2_power(k: int) -> dict:
    return {"group": {"degree": 2 * k, "generators": [_swap(2 * k, 2 * i) for i in range(k)]}}


TABLE_REFUSAL = "error: group: {r} conjugacy classes exceed the character-table cap 256\n"
RING_REFUSAL = ("error: group: {r} conjugacy classes give {r3} product constants, "
                "above the cap 2097152\n")
# (arguments, the largest r the command runs on, its refusal)
SIZE_CAPPED = [pytest.param(args, cap, refusal, id=" ".join(args)) for args, cap, refusal in (
    (["group", "--chars"], 256, TABLE_REFUSAL),
    (["motive", "bh"], 128, RING_REFUSAL),
    (["verify", "--check", "rep-ring"], 128, RING_REFUSAL),
    (["verify", "--check", "all"], 128, RING_REFUSAL))]


@pytest.mark.parametrize("k", (8, 10))
@pytest.mark.parametrize("args,cap,refusal", SIZE_CAPPED)
def test_size_capped_commands_finish_in_budget_or_refuse_at_once(tmp_path, k, args, cap,
                                                                  refusal):
    path = tmp_path / f"c2_{k}.json"
    path.write_text(json.dumps(_c2_power(k)), encoding="utf-8")
    at = 2 if args[0] == "motive" else 1
    argv = args[:at] + ["--input", str(path), "--format", "json"] + args[at:]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    elapsed = time.perf_counter() - start
    r = 2 ** k  # abelian: one class per element
    if r > cap:
        assert (rc, out.getvalue(), err.getvalue()) == (2, "", refusal.format(r=r, r3=r ** 3))
        assert elapsed < 5
    else:
        assert (rc, err.getvalue()) == (0, "")
        assert elapsed < 60
        assert len(json.loads(out.getvalue())["characterTable"]["rows"]) == r


def _run_json(doc: dict, path, commands) -> list[dict]:
    """Each command's JSON output on the document, run through main in process."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for args in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args + ["--input", str(path), "--format", "json"]) == 0
        outputs.append(json.loads(out.getvalue()))
    return outputs


def _c2_point_model(k: int) -> dict:
    doc = _c2_power(k)
    doc["model"] = {"hset": {"size": 2 * k, "generatorImages": doc["group"]["generators"]}}
    return doc


def test_refined_inertia_on_the_c2_8_point_model_has_its_closed_form(tmp_path):
    # C2^k on its 2k points: the element swapping the pairs in S fixes the
    # k - |S| other pairs, each one orbit of its normalizer G, with phi(2) = 1
    # character, so the twist-0 rank is sum_S (k - |S|) = k 2^(k-1); one
    # component per element, since each is its own cyclic class
    k = 8
    quotient, verify = _run_json(_c2_point_model(k), tmp_path / "c2_8_points.json",
                                 (["motive", "quotient"], ["verify", "--check", "inertia-dim"]))
    assert len(quotient["components"]) == 2 ** k
    assert quotient["poincare"] == str(k * 2 ** (k - 1)) == "1024"
    assert sum(c["ranks"].get("0", 0) for c in quotient["components"]) == 1024
    (report,) = verify["reports"]
    assert report["pass"] and report["lhs"] == report["rhs"] == '{"0":1024}'


def test_c2_10_point_model_through_the_three_inertia_commands(tmp_path):
    # every class is central, so each count is the generators' orbits on the
    # fixed points, checked against the model's stabilizer counts; the Kunneth
    # product with C2 doubles the classes, each with the same fixed points, so
    # its rank is twice the closed form k 2^(k-1)
    k = 10
    quotient, dims, kunneth = _run_json(
        _c2_point_model(k), tmp_path / "c2_10_points.json",
        (["motive", "quotient"], ["verify", "--check", "inertia-dim"],
         ["verify", "--check", "kunneth"]))
    assert quotient["poincare"] == str(k * 2 ** (k - 1)) == "5120"
    assert len(quotient["components"]) == 2 ** k
    (report,) = dims["reports"]
    assert report["pass"] and report["lhs"] == report["rhs"] == '{"0":5120}'
    (report,) = kunneth["reports"]
    assert report["pass"] and report["lhs"] == report["rhs"] == '{"0":10240}'


Q8 = [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]


def _q8_c2_power(k: int) -> tuple[int, list[list[int]]]:
    """Q8 x C2^k on 8 + 2k points: Q8's two generators, then k transpositions."""
    degree = 8 + 2 * k
    return degree, ([q + list(range(8, degree)) for q in Q8]
                    + [_swap(degree, 8 + 2 * i) for i in range(k)])


CENTERED = {
    "D4": (4, [[1, 2, 3, 0], [0, 3, 2, 1]]),
    "Q8": (8, Q8),
    "Q8xC2^2": _q8_c2_power(2),
    "S3xC2^3": GRID["S3xC2^3"][:2],
}


@pytest.mark.parametrize("p", (0, 2, 3))
@pytest.mark.parametrize("name", CENTERED)
def test_refined_ranks_with_a_nontrivial_center_match_the_oracle(tmp_path, name, p):
    # non-abelian groups on their own points whose centers are proper and
    # nontrivial: central classes take the generators' route, the others the
    # normalizer's, and both inertia routes must give the oracle's ranks
    degree, gens = CENTERED[name]
    doc = {"characteristic": p, "group": {"degree": degree, "generators": gens},
           "model": {"hset": {"size": degree, "generatorImages": gens}}}
    quotient, dims = _run_json(doc, tmp_path / "doc.json",
                               (["motive", "quotient"], ["verify", "--check", "inertia-dim"]))
    ranks = {str(t): r for t, r in oracles.refined_ranks(parse_document(doc).model, p).items()}
    summed = {}
    for c in quotient["components"]:
        for t, r in c["ranks"].items():
            summed[t] = summed.get(t, 0) + r
    assert summed == ranks
    (report,) = dims["reports"]
    assert report["pass"] and json.loads(report["lhs"]) == json.loads(report["rhs"]) == ranks


def test_q8_c2_7_point_model_routes_agree(tmp_path):
    # 640 classes of cyclic subgroups, 384 of them normal but not central: the
    # refined route counts each on its centralizer, of index 2, and the element
    # route on each element class's centralizer; both give the same ranks
    degree, gens = _q8_c2_power(7)
    doc = {"group": {"degree": degree, "generators": gens},
           "model": {"hset": {"size": degree, "generatorImages": gens}}}
    quotient, dims = _run_json(doc, tmp_path / "q8_c2_7_points.json",
                               (["motive", "quotient"], ["verify", "--check", "inertia-dim"]))
    assert len(quotient["components"]) == 640
    assert quotient["poincare"] == "2368"
    (report,) = dims["reports"]
    assert report["pass"] and report["lhs"] == report["rhs"] == '{"0":2368}'
