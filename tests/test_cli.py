"""CLI tests: parsing, validation messages, command output, determinism."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import stacky.decomp
import stacky.verify
from stacky.cli import (
    ACTION_ENTRY_CAP,
    _require_model_size,
    cmd_motive_curve,
    cmd_motive_quotient,
    cmd_verify,
    load_document,
    main,
    motive_from_json,
    motive_to_json,
    parse_document,
)
from stacky.errors import ParseError, ValidationError
from stacky.motives import Atom, Motive
from stacky.perms import Perm, cyclic_group

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
GOLDEN_DOCS = Path(__file__).resolve().parent / "golden" / "cli_docs"

S3_DOC = {
    "characteristic": 0,
    "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "model": {"hset": {"size": 3, "generatorImages": [[1, 0, 2], [1, 2, 0]]}},
}


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_locus_with_action_round_trips():
    doc_dict = {
        "characteristic": 0,
        "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
        "model": {"cells": {
            "cells": [{"dim": 0}, {"dim": 1}],
            "generatorImages": [[0, 1], [0, 1]],
            "fixedLoci": [{
                "generator": [1, 2, 0],
                "cells": [{"dim": 0}, {"dim": 0}],
                "normalizerGenerators": [[1, 0, 2], [1, 2, 0]],
                "normalizerImages": [[1, 0], [0, 1]],
            }],
        }},
    }
    doc = parse_document(doc_dict)
    assert doc.model.fixed_loci[0].action_images == (Perm([1, 0]), Perm([0, 1]))
    out = cmd_motive_quotient(doc)
    assert out["poincare"] == "3 + L"


def test_motive_json_round_trip():
    M = Motive.of([(Atom.unit(), 0, 2), (Atom.h1(1), 0, 1),
                   (Atom.cover("X", 2), 1, 3), (Atom.opaque("M"), -1, 1)])
    assert motive_from_json(motive_to_json(M), "base") == M


def test_validation_messages_name_field_and_index():
    bad = {"group": {"degree": 3, "generators": [[1, 0, 2], [0, 0, 1]]}}
    with pytest.raises(ValidationError) as err:
        parse_document(bad)
    assert "group.generators[1]" in str(err.value)

    bad = {"group": {"degree": 3, "generators": [[1, 0, 2]]},
           "model": {"hset": {"size": 2, "generatorImages": [[0, 1, 2]]}}}
    with pytest.raises(ValidationError) as err:
        parse_document(bad)
    assert "model.hset.generatorImages[0]" in str(err.value)

    with pytest.raises(ValidationError) as err:
        parse_document({"group": {"degree": 0, "generators": []}})
    assert "group.degree" in str(err.value)


def test_group_command(capsys, tmp_path):
    code, out = run_cli(capsys, "group", "--input", str(SAMPLES / "s3_quotient.json"))
    assert code == 0
    assert "order: 6" in out
    assert "conjugacy classes: 3" in out


def test_group_command_chars_json(capsys):
    code, out = run_cli(capsys, "group", "--input", str(SAMPLES / "s3_quotient.json"),
                        "--chars", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["characterTable"]["degrees"]) == [1, 1, 2]


def test_motive_bh_s3(capsys):
    code, out = run_cli(capsys, "motive", "bh", "--input",
                        str(SAMPLES / "s3_quotient.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["poincare"] == "3"
    assert payload["rank"] == 3
    assert len(payload["productMatrix"]) == 3


def test_motive_curve_flags(capsys):
    code, out = run_cli(capsys, "motive", "curve", "--genus", "0",
                        "--orders", "3,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["poincare"] == "5 + L"


def test_motive_curve_from_document(capsys):
    code, out = run_cli(capsys, "motive", "curve", "--input",
                        str(SAMPLES / "curve_0_33.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["poincare"] == "5 + L"


def test_motive_quotient_matches_curve(capsys):
    code, out = run_cli(capsys, "motive", "quotient", "--input",
                        str(SAMPLES / "curve_0_33.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["poincare"] == "5 + L"
    assert payload["coarse"]["poincare"] == "1 + L"


def test_motive_gerbe(capsys):
    code, out = run_cli(capsys, "motive", "gerbe", "--input",
                        str(SAMPLES / "z3_gerbe.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["poincare"] == "1 + [Cover(X,2)]"
    assert payload["orbitSizes"] == [1, 2]


@pytest.mark.parametrize("copies", [1, 2])
def test_motive_gerbe_extends_each_monodromy_once(capsys, monkeypatch, tmp_path, copies):
    # the parse boundary checks each automorphism and the datum carries its
    # row to the pair orbits, which do not extend it again
    doc = json.loads((GOLDEN_DOCS / "q8_gerbe.json").read_text(encoding="utf-8"))
    doc["gerbe"]["monodromy"] *= copies
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    extend = stacky.decomp.extend_action
    monkeypatch.setattr(stacky.decomp, "extend_action",
                        lambda *args: calls.append(args) or extend(*args))
    code, out = run_cli(capsys, "motive", "gerbe", "--input", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["command"] == "motive-gerbe"
    assert len(calls) == copies


def test_verify_all_passes(capsys):
    code, out = run_cli(capsys, "verify", "--input", str(SAMPLES / "s3_quotient.json"),
                        "--check", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["allPassed"] is True
    names = {r["check"] for r in payload["reports"]}
    assert names == {"inertia-dim", "kunneth", "rep-ring", "splitting"}


def test_verify_single_checks(capsys):
    for check in ("inertia-dim", "kunneth", "rep-ring", "splitting"):
        code, out = run_cli(capsys, "verify", "--input",
                            str(SAMPLES / "s3_quotient.json"), "--check", check)
        assert code == 0, check


def test_characteristic_override(capsys):
    code, out = run_cli(capsys, "motive", "bh", "--input",
                        str(SAMPLES / "s3_quotient.json"),
                        "--characteristic", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert "productMatrix" not in payload


def test_exit_code_1_on_failing_verification(capsys, monkeypatch):
    from stacky.verify import VerificationReport
    import stacky.cli as cli_mod

    def failing(max_points=12):
        return (VerificationReport("splitting", "deadbeef", "1", "2", False),)

    monkeypatch.setattr(cli_mod, "standard_splitting_reports", failing)
    code = main(["verify", "--input", str(SAMPLES / "s3_quotient.json"),
                 "--check", "splitting"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["group", "--input", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["group", "--input", str(missing)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"group": {"degree": 2, "generators": [[0, 0]]}}),
                       encoding="utf-8")
    assert main(["group", "--input", str(invalid)]) == 2
    capsys.readouterr()


def test_json_output_byte_stable(capsys):
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, "motive", "quotient", "--input",
                            str(SAMPLES / "curve_0_33.json"), "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_parse_error_type():
    with pytest.raises(ParseError):
        load_document("/nonexistent/never.json")


def test_gerbe_defaults():
    doc = parse_document({
        "group": {"degree": 3, "generators": [[1, 2, 0]]},
        "gerbe": {},
    })
    assert doc.gerbe is not None
    assert doc.gerbe.base == Motive.point()
    assert doc.gerbe.base_label == "X"


def test_cmd_motive_curve_plain():
    out = cmd_motive_curve(0, ())
    assert out["poincare"] == "1 + L"


@pytest.mark.parametrize("command", [("group",), ("motive", "bh"),
                                     ("verify", "--check", "rep-ring")])
def test_characteristic_must_be_zero_or_prime(capsys, tmp_path, command):
    doc = tmp_path / "c4.json"
    doc.write_text(json.dumps({**S3_DOC, "characteristic": 4}), encoding="utf-8")
    assert main([*command, "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: characteristic: characteristic 4 is neither 0 nor a prime\n"
    # the same rule holds for the command-line override, refused under the flag
    assert main([*command, "--input", str(SAMPLES / "s3_quotient.json"),
                 "--characteristic", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: --characteristic: characteristic 4 is neither 0 nor a prime\n")
    assert main([*command, "--input", str(SAMPLES / "s3_quotient.json"),
                 "--characteristic=-3"]) == 2
    assert capsys.readouterr().err == "error: --characteristic: expected a nonnegative integer\n"


def test_64_bit_prime_characteristic_is_checked_at_once(capsys):
    # trial division would take minutes on a prime this size
    start = time.perf_counter()
    assert main(["group", "--input", str(SAMPLES / "s3_quotient.json"),
                 "--characteristic", "18446744073709551557"]) == 0
    assert time.perf_counter() - start < 5
    capsys.readouterr()
    assert main(["group", "--input", str(SAMPLES / "s3_quotient.json"),
                 "--characteristic", str(2**64 + 13)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --characteristic: characteristic 18446744073709551629 is not below 2^64\n")


def _with_generator_entry(value):
    return {**S3_DOC, "group": {"degree": 3, "generators": [[1, 0, 2], [value, 2, 0]]}}


def _with_base_twist(value):
    return {"group": S3_DOC["group"],
            "gerbe": {"base": [{"atom": {"kind": "unit"}, "twist": value}]}}


# a boolean or a float where an integer belongs; the characteristic cases keep
# their ids
@pytest.mark.parametrize("doc,message", [
    pytest.param({**S3_DOC, "characteristic": value},
                 "characteristic: expected a nonnegative integer", id=str(value))
    for value in (False, True)
] + [
    pytest.param(make(value), f"{path}: expected an integer", id=f"{name}-{value}")
    for name, make, path in (("perm", _with_generator_entry, "group.generators[1][0]"),
                             ("twist", _with_base_twist, "gerbe.base[0].twist"))
    for value in (True, 1.0)
])
def test_boolean_characteristic_is_rejected(capsys, tmp_path, doc, message):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["motive", "quotient", "--input", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# nesting past the recursion limit, an integer literal past the digit limit,
# and bytes that are not UTF-8
UNREADABLE_JSON = {
    "deep": b"[" * 200_000 + b"]" * 200_000,
    "digits": b'{"characteristic": ' + b"7" * 5000 + b"}",
    "latin1": b'{"group": "\xff"}',
}


@pytest.mark.parametrize("name", UNREADABLE_JSON)
def test_unreadable_json_is_a_parse_error(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_JSON[name])
    assert main(["group", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: ")
    assert captured.err.count("\n") == 1


def test_exit_code_3_on_internal_error(capsys, monkeypatch):
    import stacky.chars as chars_mod

    def broken(T):
        raise RuntimeError("internal error: rows 0,1 fail orthogonality")

    monkeypatch.setattr(chars_mod, "_verify_table", broken)
    code = main(["group", "--input", str(SAMPLES / "s3_quotient.json"), "--chars"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: rows 0,1 fail orthogonality\n"


def test_exit_code_3_when_an_abelian_self_check_fires(capsys, monkeypatch, tmp_path):
    # a former assert: it must fire under python -O too, and reach the CLI as
    # an internal error; the generators of V4 are cut to one, which reaches
    # two of its four elements
    import stacky.chars as chars_mod

    reduce = chars_mod.reduce_generators
    monkeypatch.setattr(chars_mod, "reduce_generators",
                        lambda elems, deg: reduce(elems, deg)[:1])
    doc = tmp_path / "v4.json"
    doc.write_text(json.dumps({"characteristic": 0, "group": {
        "degree": 4, "generators": [[1, 0, 2, 3], [0, 1, 3, 2]]}}), encoding="utf-8")
    code = main(["group", "--input", str(doc), "--chars"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: generator words do not reach every element\n"


# a monodromy that is not an automorphism of its band: S3 with the images of
# its two generators swapped (not multiplicative), and C4 with its generator
# sent to its square (not bijective)
BAD_MONODROMY = {
    "s3_swapped": ({"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
                   [[1, 2, 0], [1, 0, 2]],
                   "images do not extend to a group action at (1 2)"),
    "c4_square": ({"degree": 4, "generators": [[1, 2, 3, 0]]},
                  [[2, 3, 0, 1]],
                  "images define a non-bijective endomorphism"),
}


@pytest.mark.parametrize("command", [("group",), ("motive", "gerbe")])
@pytest.mark.parametrize("name", BAD_MONODROMY)
def test_bad_monodromy_is_refused_at_parse(capsys, tmp_path, command, name):
    group, images, message = BAD_MONODROMY[name]
    doc = tmp_path / f"{name}.json"
    doc.write_text(json.dumps({"group": group, "gerbe": {"monodromy": [images]}}),
                   encoding="utf-8")
    assert main([*command, "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gerbe.monodromy[0]: {message}\n"


def test_conjugate_loci_are_refused(capsys, tmp_path):
    # (0 1) and (2 3) generate distinct but conjugate subgroups of S4
    doc = tmp_path / "s4_loci.json"
    doc.write_text(json.dumps({
        "group": {"degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
        "model": {"cells": {
            "cells": [{"dim": 0}],
            "generatorImages": [[0], [0]],
            "fixedLoci": [{"generator": [1, 0, 2, 3], "cells": [{"dim": 0}]},
                          {"generator": [0, 1, 3, 2], "cells": [{"dim": 0}]}],
        }},
    }), encoding="utf-8")
    assert main(["motive", "quotient", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model: two fixed loci declare conjugate subgroups\n"


@pytest.mark.parametrize("flags,message", [
    (("--genus", "-1"), "--genus: expected an integer >= 0"),
    (("--genus", "0", "--orders", "1"), "--orders[0]: expected an integer >= 2"),
    (("--genus", "0", "--orders", "3,0"), "--orders[1]: expected an integer >= 2"),
    # a flag is checked before the document it overrides is read
    (("--input", str(SAMPLES / "curve_0_33.json"), "--genus", "-2"),
     "--genus: expected an integer >= 0"),
    # an empty entry is refused at its position, not dropped
    (("--genus", "0", "--orders", "2,,3"), "--orders[1]: expected an integer >= 2"),
    (("--genus", "0", "--orders", "3,"), "--orders[1]: expected an integer >= 2"),
    (("--genus", "0", "--orders", ",3"), "--orders[0]: expected an integer >= 2"),
    # orders are summed: one at 2^63 or above is refused, as in a document
    (("--genus", "0", "--orders", f"3,{2 ** 63}"), "--orders[1]: expected an integer below 2^63"),
    (("--genus", "0", "--orders", "9" * 4300), "--orders[0]: expected an integer below 2^63"),
])
def test_curve_flags_are_refused_with_their_names(capsys, flags, message):
    assert main(["motive", "curve", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


NINES = int("9" * 4300)  # at the digit limit of str; a sum of two is past it
POINT_GROUP = {"degree": 1, "generators": []}
C3_GROUP = {"degree": 3, "generators": [[1, 2, 0]]}
S5_GROUP = {"degree": 5, "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}
S6_GROUP = {"degree": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]}


@pytest.mark.parametrize("command,doc,message", [
    # no generator image pays for a point model's size
    pytest.param("quotient", {"group": POINT_GROUP, "model": {"hset": {
        "size": 10 ** 11, "generatorImages": []}}},
        "model.hset.size: expected at most 2^16 cells", id="point-model-size"),
    pytest.param("quotient", {"group": POINT_GROUP, "model": {"cells": {
        "cells": [{"dim": 0}] * (2 ** 16 + 1), "generatorImages": []}}},
        "model.cells.cells: expected at most 2^16 cells", id="cell-count"),
    # one row of cells per group element: refused before any generator image is read
    pytest.param("quotient", {"group": S5_GROUP, "model": {"hset": {
        "size": 2 ** 16, "generatorImages": []}}},
        "model.hset.size: 120 group elements on 65536 cells give 7864320 action entries, "
        "above the cap 2^22", id="point-model-action"),
    pytest.param("quotient", {"group": S6_GROUP, "model": {"cells": {
        "cells": [{"dim": 0}] * 6000, "generatorImages": []}}},
        "model.cells.cells: 720 group elements on 6000 cells give 4320000 action entries, "
        "above the cap 2^22", id="cell-model-action"),
    pytest.param("curve", {"group": POINT_GROUP, "curve": {"genus": 0, "orders": [NINES, NINES]}},
                 "curve.orders[0]: expected an integer below 2^63", id="curve-orders"),
    pytest.param("curve", {"group": POINT_GROUP, "curve": {"genus": 0, "orders": [3, 2 ** 63]}},
                 "curve.orders[1]: expected an integer below 2^63", id="curve-order-at-bound"),
    pytest.param("gerbe", {"group": C3_GROUP, "gerbe": {"base": [
        {"atom": {"kind": "unit"}, "mult": NINES}]}},
        "gerbe.base[0].mult: expected an integer below 2^63", id="gerbe-mult"),
])
def test_unbounded_sizes_and_summed_integers_are_refused(capsys, tmp_path, command, doc,
                                                          message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["motive", command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sizes_and_summed_integers_at_the_bounds_are_accepted(capsys, tmp_path):
    top = 2 ** 63 - 1
    for command, doc, poincare in (
            ("quotient", {"group": POINT_GROUP, "model": {"hset": {
                "size": 2 ** 16, "generatorImages": []}}}, "65536"),
            ("curve", {"group": POINT_GROUP, "curve": {"genus": 0, "orders": [top]}}, f"{top} + L"),
            ("gerbe", {"group": C3_GROUP, "gerbe": {"base": [
                {"atom": {"kind": "unit"}, "mult": top}]}}, f"{3 * top}")):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["motive", command, "--input", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["poincare"] == poincare


def test_action_entry_cap_holds_at_the_cap():
    # C2^7 has 128 elements: 2^15 cells give exactly 2^22 action entries
    C2_7 = parse_document({"group": {"degree": 14, "generators": [
        [j ^ 1 if j // 2 == i else j for j in range(14)] for i in range(7)]}}).group
    assert C2_7.order * 2 ** 15 == ACTION_ENTRY_CAP
    _require_model_size(C2_7, 2 ** 15, "model.hset.size")
    with pytest.raises(ValidationError, match="^model.hset.size: 128 group elements on 32769"):
        _require_model_size(C2_7, 2 ** 15 + 1, "model.hset.size")


@pytest.mark.parametrize("check", ["kunneth", "all"])
def test_kunneth_past_the_element_cap_is_refused_under_group(capsys, tmp_path, check):
    # S7 x C2 has 10,080 elements: refused before any check runs, not by the
    # product's own cap
    path = tmp_path / "s7.json"
    S7 = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
    path.write_text(json.dumps({"group": {"degree": 7, "generators": S7},
                                "model": {"hset": {"size": 7, "generatorImages": S7}}}),
                    encoding="utf-8")
    assert main(["verify", "--check", check, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: group: the Kunneth check's product with C2 has 10080 "
                            "elements, above the cap 10000\n")


def test_empty_orders_flag_is_the_empty_list(capsys):
    # it also overrides the orders of an input document
    for extra in ((), ("--input", str(SAMPLES / "curve_0_33.json"))):
        assert main(["motive", "curve", "--genus", "0", "--orders", "", *extra,
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["genus"], out["orders"]) == (0, [])


def test_kunneth_on_a_cell_model_is_refused_with_its_path(capsys):
    doc = GOLDEN_DOCS / "s4_cells_noncanonical.json"
    assert main(["verify", "--check", "kunneth", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model: product models are supported for point-set models\n"


def test_kunneth_refuses_a_cell_model_before_any_motive_is_computed(capsys, monkeypatch):
    calls = []
    real = stacky.verify.inertial_quotient_motive
    monkeypatch.setattr(stacky.verify, "inertial_quotient_motive",
                        lambda *args: calls.append(args) or real(*args))
    doc = GOLDEN_DOCS / "s4_cells_noncanonical.json"
    assert main(["verify", "--check", "kunneth", "--input", str(doc)]) == 2
    assert capsys.readouterr().err == \
        "error: model: product models are supported for point-set models\n"
    model = parse_document(json.loads(doc.read_text(encoding="utf-8"))).model
    with pytest.raises(ValidationError,
                       match="^model: product models are supported for point-set models$"):
        stacky.verify.check_kunneth(model, cyclic_group(2), 0)
    assert calls == []


def test_verify_all_computes_the_refined_motive_of_a_point_model_once(monkeypatch):
    # the inertia-dimension and Kunneth checks share the model's refined ranks
    calls = []
    real = stacky.verify.inertial_quotient_motive
    monkeypatch.setattr(stacky.verify, "inertial_quotient_motive",
                        lambda *args: calls.append(args[0]) or real(*args))
    doc = load_document(str(GOLDEN_DOCS / "s4_points.json"))
    out = cmd_verify(doc, "all", 0)
    assert out["allPassed"]
    assert [r["check"] for r in out["reports"][:2]] == ["inertia-dim", "kunneth"]
    assert sum(X is doc.model for X in calls) == 1
