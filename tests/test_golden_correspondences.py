"""Golden exact rationals of the correspondence calculus.

tests/golden/correspondences.jsonl was recorded while ``mat_mul`` still
summed ``Fraction`` products, before it moved to integer numerators over a
common denominator.  It holds, as ``str`` entries:

* the inclusion and retraction of ``splitting_certificate(f, n, k, m)`` for
  every cover shape ``standard_splitting_reports(12)`` visits;
* the ``split_idempotent`` factors of the seeded random idempotents of
  ``tests/test_corresp.py``;
* ``compose`` of seeded multi-twist correspondences with mixed denominators,
  twists missing on one side and empty middle motives (zero blocks).

Every entry must still render to the same bytes.  Regenerate (only for a
deliberate change of output) with

    PYTHONPATH=src python tests/test_golden_correspondences.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from stacky.corresp import Correspondence, compose, split_idempotent, splitting_certificate
from stacky.motives import UNIT, Motive
from test_corresp import random_idempotents

GOLDEN = Path(__file__).resolve().parent / "golden" / "correspondences.jsonl"


def _render(x: Correspondence) -> dict:
    return {"source": str(x.source), "target": str(x.target),
            "blocks": {str(t): [[str(v) for v in row] for row in x.blocks[t]]
                       for t in sorted(x.blocks)}}


def _random_motive(rng: random.Random) -> Motive:
    return Motive.of([(UNIT, t, rng.randint(0, 3)) for t in range(3)])


def _random_correspondence(rng: random.Random, source: Motive, target: Motive) -> Correspondence:
    src, tgt = source.unit_multiplicities(), target.unit_multiplicities()
    return Correspondence(source, target, {
        t: tuple(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(src[t]))
                 for _ in range(tgt[t]))
        for t in src if t in tgt})


def _compose_cases(seed: int = 31, count: int = 40):
    rng = random.Random(seed)
    for i in range(count):
        a, c = _random_motive(rng), _random_motive(rng)
        # every fourth middle motive is empty: compose then fills zero blocks
        b = Motive.zero() if i % 4 == 0 else _random_motive(rng)
        yield _random_correspondence(rng, b, c), _random_correspondence(rng, a, b)


def render() -> str:
    records: list[dict] = []
    for k in range(1, 13):
        for m in range(1, 12 // k + 1):
            f = [j for j in range(k) for _ in range(m)]
            factor = splitting_certificate(f, k * m, k, m)
            records.append({"splitting": [k, m], "inclusion": _render(factor.inclusion),
                            "retraction": _render(factor.retraction)})
    for i, (_, p) in enumerate(random_idempotents()):
        factor = split_idempotent(p)
        records.append({"idempotent": i, "image": str(factor.image),
                        "inclusion": _render(factor.inclusion),
                        "retraction": _render(factor.retraction)})
    for i, (x, y) in enumerate(_compose_cases()):
        records.append({"compose": i, "result": _render(compose(x, y))})
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def test_correspondences_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
