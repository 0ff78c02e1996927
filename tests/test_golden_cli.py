"""Golden CLI corpus: exit code, stdout and stderr of `stacky` runs, byte for byte.

The corpus in tests/golden/cli_outputs.jsonl was recorded before the
permutation-group core was rewritten around one orbit closure; the filtered
cyclic-class listings and suite seeds 1 and 2 before inertia components became
restrictions of the parent's action; and the named-group grid at its end (the
character table and BH of S4-S6, A5, D6, Q8 and C12) before the class caches
became cached properties of the group.  Every run must still produce the same
bytes.  The generated documents it reads live in tests/golden/cli_docs/ and are
built from raw image tuples below (the oracles' closure and composition, not the
package).  Regenerate both (only for a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from stacky.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DOCS = GOLDEN / "cli_docs"
CORPUS = GOLDEN / "cli_outputs.jsonl"
SAMPLES = ("s3_quotient.json", "z3_gerbe.json", "curve_0_33.json")


def _cycle(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def _swap01(n: int) -> list[int]:
    return [1, 0] + list(range(2, n))


def _on_pairs(n: int, gens: list[list[int]]) -> tuple[int, list[list[int]]]:
    """The induced action on the 2-element subsets of {0..n-1}."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return len(pairs), [[index[tuple(sorted((g[a], g[b])))] for a, b in pairs] for g in gens]


def _points_doc(n: int) -> dict:
    gens = [_swap01(n), _cycle(n)]
    return {"group": {"degree": n, "generators": gens},
            "model": {"hset": {"size": n, "generatorImages": gens}}}


def _pairs_doc(n: int) -> dict:
    gens = [_swap01(n), _cycle(n)]
    size, images = _on_pairs(n, gens)
    return {"group": {"degree": n, "generators": gens},
            "model": {"hset": {"size": size, "generatorImages": images}}}


def _d6_coset_doc() -> dict:
    """D6 (order 12) on the cosets of a reflection subgroup and of the
    rotation subgroup of order 3, as one point model."""
    rot = tuple(_cycle(6))
    ref = tuple((-i) % 6 for i in range(6))
    elems = oracles.closure(6, [rot, ref])
    r2 = oracles.compose(rot, rot)
    blocks = []
    for sub in (oracles.closure(6, [ref]), oracles.closure(6, [r2])):
        blocks.append(sorted({tuple(sorted(oracles.compose(x, s) for s in sub))
                              for x in elems}))
    images = []
    for g in (rot, ref):
        img, offset = [], 0
        for cosets in blocks:
            lookup = {c: i for i, c in enumerate(cosets)}
            img += [offset + lookup[tuple(sorted(oracles.compose(g, x) for x in c))]
                    for c in cosets]
            offset += len(cosets)
        images.append(img)
    return {"group": {"degree": 6, "generators": [list(rot), list(ref)]},
            "model": {"hset": {"size": sum(map(len, blocks)), "generatorImages": images}}}


Q8_GENS = [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]


def _q8_gerbe_doc() -> dict:
    """Q8 with the order-3 automorphism i -> j -> k as monodromy."""
    i, j = (tuple(g) for g in Q8_GENS)
    k = oracles.compose(i, j)
    return {"group": {"degree": 8, "generators": Q8_GENS},
            "gerbe": {"monodromy": [[list(j), list(k)]],
                      "base": [{"atom": {"kind": "unit"}, "twist": 0, "mult": 1},
                               {"atom": {"kind": "unit"}, "twist": 1, "mult": 1}],
                      "baseLabel": "P1"}}


def _c5_gerbe_doc() -> dict:
    """C5 with the automorphism x -> x^2 (order 4) as monodromy."""
    c = tuple(_cycle(5))
    return {"characteristic": 0, "group": {"degree": 5, "generators": [list(c)]},
            "gerbe": {"monodromy": [[list(oracles.compose(c, c))]], "baseLabel": "Y"}}


def _s4_cells_doc() -> dict:
    """S4 on a cell model whose fixed loci are declared on subgroups that are
    not the canonical representatives of their conjugacy classes: <(0 1)>
    (canonical is <(2 3)>) and <(0 1 2)> (canonical is <(1 2 3)>).  Both loci
    carry a nontrivial normalizer action, so the conjugator that transports
    it onto the canonical normalizer shows in the output."""
    gens = [_swap01(4), _cycle(4)]
    cells = [{"dim": 0}] + [{"dim": 1}] * 4 + [{"dim": 2}]
    images = [[0] + [1 + x for x in g] + [5] for g in gens]
    t01, t23 = [1, 0, 2, 3], [0, 1, 3, 2]
    c012, t12 = [1, 2, 0, 3], [0, 2, 1, 3]
    loci = [
        {"generator": t01, "cells": [{"dim": 0}, {"dim": 0}, {"dim": 1}],
         "normalizerGenerators": [t01, t23],
         "normalizerImages": [[0, 1, 2], [1, 0, 2]]},
        {"generator": c012, "cells": [{"dim": 0}, {"dim": 0}],
         "normalizerGenerators": [c012, t12],
         "normalizerImages": [[0, 1], [1, 0]]},
    ]
    return {"group": {"degree": 4, "generators": gens},
            "model": {"cells": {"cells": cells, "generatorImages": images,
                                "fixedLoci": loci}}}


def generated_documents() -> dict[str, dict]:
    return {
        "s4_points.json": _points_doc(4),
        "s4_pairs.json": _pairs_doc(4),
        "s5_points.json": _points_doc(5),
        "s5_pairs.json": _pairs_doc(5),
        "d6_cosets.json": _d6_coset_doc(),
        "q8_regular.json": {"group": {"degree": 8, "generators": Q8_GENS}},
        "q8_gerbe.json": _q8_gerbe_doc(),
        "c5_gerbe.json": _c5_gerbe_doc(),
        "s4_cells_noncanonical.json": _s4_cells_doc(),
        "s6_points.json": _points_doc(6),
        "a5_group.json": {"group": {"degree": 5, "generators": [[1, 2, 0, 3, 4], _cycle(5)]}},
        "c12_group.json": {"group": {"degree": 12, "generators": [_cycle(12)]}},
    }


def cases() -> list[tuple[str, list[str]]]:
    """(document, arguments before --input) for every recorded run."""
    out = []
    for doc in SAMPLES:
        out += [(doc, ["group", "--chars"]), (doc, ["motive", "quotient"]),
                (doc, ["motive", "bh"]), (doc, ["motive", "gerbe"]),
                (doc, ["motive", "curve"]), (doc, ["verify", "--check", "all"])]
    out.append(("s3_quotient.json", ["verify", "--check", "suite", "--seed", "0"]))
    for doc in ("s4_points.json", "s4_pairs.json", "s5_points.json", "s5_pairs.json",
                "d6_cosets.json"):
        out += [(doc, ["group"]), (doc, ["motive", "quotient"]),
                (doc, ["motive", "quotient", "--characteristic", "2"]),
                (doc, ["motive", "quotient", "--characteristic", "3"]),
                (doc, ["verify", "--check", "inertia-dim"]),
                (doc, ["verify", "--check", "kunneth", "--characteristic", "2"])]
    out += [("s4_points.json", ["group", "--chars"]),
            ("s5_points.json", ["motive", "bh"]),
            ("s5_points.json", ["motive", "bh", "--characteristic", "5"]),
            ("d6_cosets.json", ["verify", "--check", "rep-ring"]),
            ("q8_regular.json", ["group", "--chars"]),
            ("q8_regular.json", ["motive", "bh"]),
            ("q8_regular.json", ["motive", "bh", "--characteristic", "2"]),
            ("q8_gerbe.json", ["motive", "gerbe"]),
            ("q8_gerbe.json", ["motive", "gerbe", "--characteristic", "3"]),
            ("c5_gerbe.json", ["motive", "gerbe"]),
            ("c5_gerbe.json", ["motive", "gerbe", "--characteristic", "5"])]
    doc = "s4_cells_noncanonical.json"
    out += [(doc, ["group"]), (doc, ["motive", "quotient"]),
            (doc, ["motive", "quotient", "--characteristic", "2"]),
            (doc, ["motive", "quotient", "--characteristic", "3"]),
            (doc, ["verify", "--check", "inertia-dim"]),
            (doc, ["verify", "--check", "inertia-dim", "--characteristic", "3"])]
    for doc in ("s4_points.json", "s5_points.json", "d6_cosets.json"):
        out += [(doc, ["group", "--characteristic", "2"]),
                (doc, ["group", "--characteristic", "3"])]
    out += [("s3_quotient.json", ["verify", "--check", "suite", "--seed", "1"]),
            ("s3_quotient.json", ["verify", "--check", "suite", "--seed", "2"])]
    # the named-group grid: the character table and BH of S4, S5, S6, A5, D6, Q8
    # and C12, each run once (some are recorded above)
    for doc in ("s4_points.json", "s5_points.json", "s6_points.json", "a5_group.json",
                "d6_cosets.json", "q8_regular.json", "c12_group.json"):
        for args in (["group", "--chars"], ["motive", "bh"]):
            if (doc, args) not in out:
                out.append((doc, args))
    return out


def _path(doc: str) -> Path:
    return ROOT / "sample_inputs" / doc if doc in SAMPLES else DOCS / doc


def run(doc: str, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*args, "--input", str(_path(doc)), "--format", "json"])
    return {"doc": doc, "args": args, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded() -> list[dict]:
    # a missing corpus collects no runs and fails test_corpus_covers_every_case
    if not CORPUS.exists():
        return []
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_generated_documents_match_their_builders():
    for name, doc in generated_documents().items():
        assert (DOCS / name).read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"


def test_corpus_covers_every_case():
    assert [(r["doc"], r["args"]) for r in _recorded()] == [(d, a) for d, a in cases()]


@pytest.mark.parametrize("record", _recorded(),
                         ids=lambda r: f"{r['doc']}:{' '.join(r['args'])}")
def test_cli_output_matches_golden(record):
    assert run(record["doc"], record["args"]) == record


if __name__ == "__main__":
    DOCS.mkdir(parents=True, exist_ok=True)
    for name, doc in generated_documents().items():
        (DOCS / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    CORPUS.write_text("".join(json.dumps(run(d, a), sort_keys=True) + "\n"
                              for d, a in cases()), encoding="utf-8")
