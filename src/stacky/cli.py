"""Command-line front end: parse JSON input documents, dispatch computations,
render deterministic text or JSON reports.

Exit codes: 0 on success, 1 when a verification fails, 2 on input errors,
3 on an internal error (a failed self-check).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from ._record import record
from .chars import character_table
from .decomp import (
    GerbeDatum,
    bh_motive,
    gerbe_motive,
    inertial_quotient_motive,
    orbifold_curve_motive,
    _automorphism_map,
)
from .errors import (GroupTooLargeError, NotAnAutomorphismError, ParseError, StackyError,
                     ValidationError, internal_error_text)
from .motives import Atom, EquivariantModel, FixedLocus, Motive, chow_dim, poincare_polynomial
from .perms import (
    ELEMENT_CAP,
    FiniteGroup,
    Perm,
    check_characteristic,
    conjugacy_classes,
    cyclic_group,
    cyclic_subgroup_classes,
    generate_group,
)
from .verify import (
    _model_reports,
    check_rep_ring_vs_classes,
    run_suite,
    standard_splitting_reports,
)

CHECK_NAMES = ("inertia-dim", "kunneth", "rep-ring", "splitting", "suite", "all")
# Size caps on r, the number of conjugacy classes, where the output grows faster
# than the group: a character table has r^2 values, and the ring's r^3 product
# constants take r^4 work.  Both sit far above every recorded run.
TABLE_CLASS_CAP = 256
RING_CONSTANT_CAP = 128 ** 3
# A model has at most 2^16 cells and 2^22 action entries (|G| x cells), far above every
# recorded run: nothing in a document pays for them.  Integers the commands sum (a base
# multiplicity, a stacky point order) stay below 2^63, so no sum outgrows str.
MODEL_CELL_CAP = 1 << 16
ACTION_ENTRY_CAP = 1 << 22
SUMMED_INT_BOUND = 1 << 63


@record
class InputDocument:
    """A parsed input file: the group plus at most one computation target."""

    characteristic: int
    group: FiniteGroup
    model: EquivariantModel | None
    gerbe: GerbeDatum | None
    curve: tuple[int, tuple[int, ...]] | None


# ---------------------------------------------------------------------------
# Parsing with path-qualified messages.

def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {message}")


def _get_int(obj: Any, path: str, *, minimum: int | None = None) -> int:
    _expect(isinstance(obj, int) and not isinstance(obj, bool), path, "expected an integer")
    if minimum is not None:
        _expect(obj >= minimum, path, f"expected an integer >= {minimum}")
    return obj


def _get_summed_int(obj: Any, path: str, *, minimum: int) -> int:
    n = _get_int(obj, path, minimum=minimum)
    _expect(n < SUMMED_INT_BOUND, path, "expected an integer below 2^63")
    return n


def _require_model_size(group: FiniteGroup, cells: int, path: str) -> None:
    _expect(cells <= MODEL_CELL_CAP, path, "expected at most 2^16 cells")
    _expect(group.order * cells <= ACTION_ENTRY_CAP, path, f"{group.order} group elements on "
            f"{cells} cells give {group.order * cells} action entries, above the cap 2^22")


def _get_list(obj: Any, path: str) -> list:
    _expect(isinstance(obj, list), path, "expected an array")
    return obj


def _get_dict(obj: Any, path: str) -> dict:
    _expect(isinstance(obj, dict), path, "expected an object")
    return obj


def _parse_perm(obj: Any, path: str, degree: int) -> Perm:
    arr = _get_list(obj, path)
    _expect(len(arr) == degree, path, f"expected {degree} entries, got {len(arr)}")
    for i, x in enumerate(arr):
        _get_int(x, f"{path}[{i}]")
        _expect(0 <= x < degree, f"{path}[{i}]", f"index {x} out of range 0..{degree - 1}")
    try:
        return Perm(arr)
    except StackyError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_perms(obj: Any, path: str, degree: int) -> list[Perm]:
    return [_parse_perm(x, f"{path}[{i}]", degree) for i, x in enumerate(_get_list(obj, path))]


def _parse_dims(obj: Any, path: str) -> list[int]:
    """The cell dimensions of a list of ``{"dim": d}`` objects."""
    return [_get_int(_get_dict(cell, f"{path}[{i}]").get("dim"), f"{path}[{i}].dim", minimum=0)
            for i, cell in enumerate(_get_list(obj, path))]


def atom_from_json(obj: Any, path: str) -> Atom:
    spec = _get_dict(obj, path)
    kind = spec.get("kind")
    _expect(kind in Atom.KINDS, f"{path}.kind", f"expected one of {list(Atom.KINDS)}")
    try:
        if kind == "unit":
            return Atom.unit()
        if kind == "h1":
            return Atom.h1(_get_int(spec.get("genus"), f"{path}.genus", minimum=0))
        if kind == "cover":
            base = spec.get("base")
            _expect(isinstance(base, str) and base, f"{path}.base",
                    "expected a nonempty string")
            return Atom.cover(base, _get_int(spec.get("degree"), f"{path}.degree", minimum=2))
        label = spec.get("label")
        _expect(isinstance(label, str) and label, f"{path}.label",
                "expected a nonempty string")
        return Atom.opaque(label)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def motive_from_json(obj: Any, path: str) -> Motive:
    terms = []
    for i, term in enumerate(_get_list(obj, path)):
        tpath = f"{path}[{i}]"
        spec = _get_dict(term, tpath)
        atom = atom_from_json(spec.get("atom"), f"{tpath}.atom")
        twist = _get_int(spec.get("twist", 0), f"{tpath}.twist")
        mult = _get_summed_int(spec.get("mult", 1), f"{tpath}.mult", minimum=1)
        terms.append((atom, twist, mult))
    return Motive.of(terms)


def motive_to_json(M: Motive) -> list[dict]:
    out = []
    for atom, twist, mult in M.terms:
        a: dict[str, Any] = {"kind": atom.kind}
        if atom.kind == "h1":
            a["genus"] = atom.genus
        elif atom.kind == "cover":
            a["base"] = atom.base
            a["degree"] = atom.degree
        elif atom.kind == "opaque":
            a["label"] = atom.label
        out.append({"atom": a, "twist": twist, "mult": mult})
    return out


def _characteristic(p: Any, path: str) -> int:
    """p if it is 0 or a prime below 2^64; refused under the path or flag it came from."""
    _expect(isinstance(p, int) and not isinstance(p, bool) and p >= 0, path,
            "expected a nonnegative integer")
    try:
        check_characteristic(p)
    except StackyError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return p


def parse_document(raw: Any) -> InputDocument:
    doc = _get_dict(raw, "document")
    characteristic = _characteristic(doc.get("characteristic", 0), "characteristic")

    gspec = _get_dict(doc.get("group"), "group")
    degree = _get_int(gspec.get("degree"), "group.degree", minimum=1)
    gens = _parse_perms(gspec.get("generators"), "group.generators", degree)
    try:
        group = generate_group(degree, gens)
    except StackyError as exc:
        raise ValidationError(f"group: {exc}") from exc

    model = None
    if "model" in doc:
        model = _parse_model(doc["model"], group)
    gerbe = None
    if "gerbe" in doc:
        gerbe = _parse_gerbe(doc["gerbe"], group)
    curve = None
    if "curve" in doc:
        cspec = _get_dict(doc["curve"], "curve")
        genus = _get_int(cspec.get("genus"), "curve.genus", minimum=0)
        orders = tuple(_get_summed_int(n, f"curve.orders[{i}]", minimum=2)
                       for i, n in enumerate(_get_list(cspec.get("orders"), "curve.orders")))
        curve = (genus, orders)
    return InputDocument(characteristic, group, model, gerbe, curve)


def _parse_model(obj: Any, group: FiniteGroup) -> EquivariantModel:
    spec = _get_dict(obj, "model")
    keys = set(spec)
    _expect(keys in ({"hset"}, {"cells"}), "model",
            'expected exactly one of "hset" or "cells"')
    try:
        if "hset" in spec:
            h = _get_dict(spec["hset"], "model.hset")
            size = _get_int(h.get("size"), "model.hset.size", minimum=0)
            _require_model_size(group, size, "model.hset.size")
            images = _parse_perms(h.get("generatorImages"), "model.hset.generatorImages", size)
            return EquivariantModel.hset(group, size, images)
        c = _get_dict(spec["cells"], "model.cells")
        dims = _parse_dims(c.get("cells"), "model.cells.cells")
        _require_model_size(group, len(dims), "model.cells.cells")
        images = _parse_perms(c.get("generatorImages"), "model.cells.generatorImages", len(dims))
        loci = []
        for i, lspec in enumerate(_get_list(c.get("fixedLoci", []), "model.cells.fixedLoci")):
            loci.append(_parse_locus(lspec, f"model.cells.fixedLoci[{i}]", group))
        return EquivariantModel(group, dims, images, kind="cells", fixed_loci=loci)
    except (StackyError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"model: {exc}") from exc


def _parse_locus(obj: Any, path: str, group: FiniteGroup) -> FixedLocus:
    spec = _get_dict(obj, path)
    gen = _parse_perm(spec.get("generator"), f"{path}.generator", group.degree)
    dims = _parse_dims(spec.get("cells"), f"{path}.cells")
    action_gens = []
    action_imgs = []
    if "normalizerGenerators" in spec or "normalizerImages" in spec:
        raw_gens = _get_list(spec.get("normalizerGenerators"), f"{path}.normalizerGenerators")
        raw_imgs = _get_list(spec.get("normalizerImages"), f"{path}.normalizerImages")
        _expect(len(raw_gens) == len(raw_imgs), f"{path}.normalizerImages",
                "expected as many images as normalizer generators")
        action_gens = _parse_perms(raw_gens, f"{path}.normalizerGenerators", group.degree)
        action_imgs = _parse_perms(raw_imgs, f"{path}.normalizerImages", len(dims))
    return FixedLocus(gen, tuple(dims), tuple(action_gens), tuple(action_imgs))


def _parse_gerbe(obj: Any, group: FiniteGroup) -> GerbeDatum:
    spec = _get_dict(obj, "gerbe")
    monodromy = []
    rows = []
    for i, auto in enumerate(_get_list(spec.get("monodromy", []), "gerbe.monodromy")):
        images = _get_list(auto, f"gerbe.monodromy[{i}]")
        _expect(len(images) == len(group.generators), f"gerbe.monodromy[{i}]",
                f"expected {len(group.generators)} generator images")
        monodromy.append(tuple(_parse_perms(images, f"gerbe.monodromy[{i}]", group.degree)))
        try:
            rows.append(_automorphism_map(group, monodromy[-1]))
        except NotAnAutomorphismError as exc:
            raise ValidationError(f"gerbe.monodromy[{i}]: {exc}") from exc
    base = motive_from_json(spec.get("base", [{"atom": {"kind": "unit"}}]), "gerbe.base")
    label = spec.get("baseLabel", "X")
    _expect(isinstance(label, str) and label, "gerbe.baseLabel", "expected a nonempty string")
    return GerbeDatum._checked(tuple(rows), group, tuple(monodromy), base, label)


def load_document(path: str) -> InputDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # a JSONDecodeError, a file that is not UTF-8, an integer literal past the
    # digit limit (ValueError) or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_document(raw)


# ---------------------------------------------------------------------------
# Output assembly.

def _chow_dims_json(M: Motive) -> dict:
    out = {}
    for t in M.twists():
        res = chow_dim(M, t)
        out[str(t)] = {"tateDim": res.tate_dim,
                       "opaque": [f"{atom.render()}@{tw}" for atom, tw in res.opaque_terms]}
    return out


def _motive_payload(M: Motive) -> dict:
    return {"motive": motive_to_json(M), "poincare": poincare_polynomial(M),
            "chowDims": _chow_dims_json(M)}


def _require_ring_size(G: FiniteGroup) -> None:
    """Refuse a group whose representation ring has too many product constants."""
    r = len(conjugacy_classes(G))
    if r ** 3 > RING_CONSTANT_CAP:
        raise GroupTooLargeError(f"group: {r} conjugacy classes give {r ** 3} product "
                                 f"constants, above the cap {RING_CONSTANT_CAP}")


def cmd_group(doc: InputDocument, with_chars: bool) -> dict:
    G = doc.group
    p = doc.characteristic
    classes = conjugacy_classes(G)
    if with_chars and len(classes) > TABLE_CLASS_CAP:
        raise GroupTooLargeError(f"group: {len(classes)} conjugacy classes exceed the "
                                 f"character-table cap {TABLE_CLASS_CAP}")
    cyclics = cyclic_subgroup_classes(G, p)
    out: dict[str, Any] = {
        "command": "group",
        "characteristic": p,
        "order": G.order,
        "conjugacyClasses": [
            {"order": c.order, "size": c.size, "representative": list(c.representative.images)}
            for c in classes],
        "cyclicClasses": [
            {"order": c.order, "generator": list(c.generator.images),
             "normalizerOrder": len(c.normalizer_indices)}
            for c in cyclics],
    }
    if with_chars:
        T = character_table(G)
        out["characterTable"] = {
            "degrees": list(T.degrees),
            "classes": [list(c.representative.images) for c in T.classes],
            "rows": [[str(v) for v in row] for row in T.rows],
        }
    return out


def cmd_motive_bh(doc: InputDocument) -> dict:
    if doc.characteristic == 0:
        _require_ring_size(doc.group)
    res = bh_motive(doc.group, doc.characteristic)
    out = {"command": "motive-bh", "characteristic": doc.characteristic,
           "rank": res.rank, **_motive_payload(res.motive)}
    if res.product_constants is not None:
        out["productMatrix"] = [[list(row) for row in plane]
                                for plane in res.product_constants]
    return out


def cmd_motive_quotient(doc: InputDocument) -> dict:
    if doc.model is None:
        raise ValidationError("model: required for the quotient command")
    res = inertial_quotient_motive(doc.model, doc.characteristic)
    components = []
    for cc in res.components:
        components.append({
            "cyclicOrder": cc.component.cyclic.order,
            "generator": list(cc.component.cyclic.generator.images),
            "fixedCells": cc.component.fixed_model.size,
            "ranks": {str(t): r for t, r in cc.ranks},
            "motive": motive_to_json(cc.motive),
        })
    return {"command": "motive-quotient", "characteristic": doc.characteristic,
            "components": components,
            "coarse": _motive_payload(res.trivial_component()),
            **_motive_payload(res.motive)}


def cmd_motive_gerbe(doc: InputDocument) -> dict:
    if doc.gerbe is None:
        raise ValidationError("gerbe: required for the gerbe command")
    res = gerbe_motive(doc.gerbe, doc.characteristic)
    return {"command": "motive-gerbe", "characteristic": doc.characteristic,
            "orbitSizes": list(res.orbit_sizes),
            "coarse": _motive_payload(res.coarse_factor),
            **_motive_payload(res.motive)}


def cmd_motive_curve(genus: int, orders: Sequence[int]) -> dict:
    res = orbifold_curve_motive(genus, orders)
    return {"command": "motive-curve", "genus": genus, "orders": list(orders),
            "coarse": _motive_payload(res.coarse_factor),
            **_motive_payload(res.motive)}


def cmd_verify(doc: InputDocument, check: str, seed: int) -> dict:
    if check in ("rep-ring", "all"):
        _require_ring_size(doc.group)
    model = doc.model if doc.model is not None else EquivariantModel.point(doc.group)
    if model.kind == "hset" and check in ("kunneth", "all") and 2 * doc.group.order > ELEMENT_CAP:
        raise GroupTooLargeError(f"group: the Kunneth check's product with C2 has "
                                 f"{2 * doc.group.order} elements, above the cap {ELEMENT_CAP}")
    p = doc.characteristic
    reports = []
    kunneth = check == "kunneth" or (check == "all" and model.kind == "hset")
    if kunneth or check in ("inertia-dim", "all"):  # one refined motive for both checks
        reports.extend(_model_reports(model, p, cyclic_group(2) if kunneth else None,
                                      inertia_dim=check != "kunneth"))
    if check in ("rep-ring", "all"):
        reports.append(check_rep_ring_vs_classes(doc.group))
    if check in ("splitting", "all"):
        reports.extend(standard_splitting_reports(12))
    if check in ("suite", "all"):
        reports.extend(run_suite(seed=seed, count=100))
    return {"command": "verify", "check": check, "seed": seed,
            "reports": [r.to_dict() for r in reports],
            "allPassed": all(r.passed for r in reports)}


# ---------------------------------------------------------------------------
# Rendering.

def render_json(out: dict) -> str:
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(out: dict) -> str:
    lines = [f"command: {out['command']}"]
    if "order" in out:
        lines.append(f"order: {out['order']}")
        lines.append(f"conjugacy classes: {len(out['conjugacyClasses'])}")
        for c in out["conjugacyClasses"]:
            lines.append(f"  order {c['order']} size {c['size']} rep {c['representative']}")
        lines.append(f"cyclic subgroup classes: {len(out['cyclicClasses'])}")
        for c in out["cyclicClasses"]:
            lines.append(f"  order {c['order']} normalizer {c['normalizerOrder']} "
                         f"gen {c['generator']}")
        if "characterTable" in out:
            T = out["characterTable"]
            lines.append(f"character table ({len(T['rows'])} rows):")
            for deg, row in zip(T["degrees"], T["rows"]):
                lines.append(f"  deg {deg}: " + ", ".join(row))
    if "poincare" in out:
        lines.append(f"poincare: {out['poincare']}")
        for t, info in sorted(out["chowDims"].items(), key=lambda kv: int(kv[0])):
            opaque = f" (opaque: {', '.join(info['opaque'])})" if info["opaque"] else ""
            lines.append(f"  A^{t}: dim {info['tateDim']}{opaque}")
    if "rank" in out:
        lines.append(f"rank: {out['rank']}")
    if "components" in out:
        lines.append("components:")
        for c in out["components"]:
            ranks = ", ".join(f"A^{t}={r}" for t, r in sorted(c["ranks"].items(),
                                                              key=lambda kv: int(kv[0])))
            lines.append(f"  cyclic order {c['cyclicOrder']}: fixed cells "
                         f"{c['fixedCells']}, {ranks if ranks else 'empty'}")
    if "orbitSizes" in out:
        lines.append(f"orbit sizes: {out['orbitSizes']}")
    if "reports" in out:
        for r in out["reports"]:
            status = "PASS" if r["pass"] else "FAIL"
            lines.append(f"{status} {r['check']} [{r['inputDigest']}] "
                         f"lhs={r['lhs']} rhs={r['rhs']}")
        lines.append(f"all passed: {out['allPassed']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument handling.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacky",
        description="Exact Tate-motive decompositions for finite-group "
                    "quotient stack models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, input_required: bool = True) -> None:
        p.add_argument("--input", required=input_required, help="JSON input document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--characteristic", type=int, default=None,
                       help="override the document characteristic")

    g = sub.add_parser("group", help="group invariants and character data")
    common(g)
    g.add_argument("--chars", action="store_true", help="include the character table")

    m = sub.add_parser("motive", help="motive decompositions")
    msub = m.add_subparsers(dest="target", required=True)
    for name in ("bh", "quotient", "gerbe"):
        common(msub.add_parser(name))
    curve = msub.add_parser("curve")
    common(curve, input_required=False)
    curve.add_argument("--genus", type=int, default=None)
    curve.add_argument("--orders", type=str, default=None,
                       help="comma-separated stacky point orders")

    v = sub.add_parser("verify", help="run exact cross-checks")
    common(v)
    v.add_argument("--check", choices=CHECK_NAMES, default="all")
    v.add_argument("--seed", type=int, default=0, help="randomized suite seed")
    return parser


def _apply_characteristic(doc: InputDocument, override: int | None) -> InputDocument:
    if override is None:
        return doc
    return InputDocument(_characteristic(override, "--characteristic"), doc.group, doc.model,
                         doc.gerbe, doc.curve)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "motive" and args.target == "curve":
            out = cmd_motive_curve(*_curve_arguments(args))
        else:
            doc = _apply_characteristic(load_document(args.input), args.characteristic)
            if args.command == "group":
                out = cmd_group(doc, args.chars)
            elif args.command == "motive":
                out = {"bh": cmd_motive_bh,
                       "quotient": cmd_motive_quotient,
                       "gerbe": cmd_motive_gerbe}[args.target](doc)
            else:
                out = cmd_verify(doc, args.check, args.seed)
    except StackyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a self-check failed: a fault of the program, not of the input
        print(internal_error_text(exc), file=sys.stderr)
        return 3
    sys.stdout.write(render_json(out) if args.format == "json" else render_text(out))
    if args.command == "verify" and not out["allPassed"]:
        return 1
    return 0


def _curve_arguments(args) -> tuple[int, tuple[int, ...]]:
    genus = None if args.genus is None else _get_int(args.genus, "--genus", minimum=0)
    orders: tuple[int, ...] | None = None
    if args.orders is not None:
        # "" is the empty list; an empty entry in a longer one is refused like 0
        entries = args.orders.split(",") if args.orders else []
        try:
            orders = tuple(_get_summed_int(int(x) if x else 0, f"--orders[{i}]", minimum=2)
                           for i, x in enumerate(entries))
        except ValueError as exc:
            raise ValidationError(f"--orders: {exc}") from exc
    if args.input is not None:
        doc = load_document(args.input)
        if doc.curve is not None:
            if genus is None:
                genus = doc.curve[0]
            if orders is None:
                orders = doc.curve[1]
    if genus is None:
        raise ValidationError("curve.genus: required (use --genus or an input document)")
    return genus, orders or ()


if __name__ == "__main__":
    raise SystemExit(main())
