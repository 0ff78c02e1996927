"""Golden gerbe pair-orbit sets and gerbe motives.

The file tests/golden/gerbe_rsets.jsonl was recorded while the pair action
of ``gerbe_rset`` still conjugated ``Perm`` objects; every band below must
still render to the same bytes.  Each band runs at p in {0, 2, 3}, once with
no monodromy and once with three seeded inner automorphisms followed, on
abelian bands, by the power maps x -> x^k for every k in 2..exp-1 prime to
the exponent.  Regenerate (only for a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden_gerbes.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from stacky.decomp import GerbeDatum, gerbe_motive, gerbe_rset
from stacky.motives import Atom, Motive, poincare_polynomial
from stacky.perms import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
    trivial_group,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "gerbe_rsets.jsonl"

BANDS = {
    "C1": trivial_group,
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C12": lambda: cyclic_group(12),
    "C2xC6": lambda: direct_product(cyclic_group(2), cyclic_group(6)),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "D4": lambda: dihedral_group(4),
    "D6": lambda: dihedral_group(6),
    "Q8": quaternion_group,
    "A4": lambda: alternating_group(4),
    "A5": lambda: alternating_group(5),
}

BASE = Motive.of([(Atom.unit(), 0, 1), (Atom.unit(), 1, 1)])


def monodromy(name: str, H):
    """Three seeded inner automorphisms, then the coprime power maps of an
    abelian band, each as its tuple of generator images."""
    rng = random.Random(name)
    autos = []
    for _ in range(3):
        h = rng.choice(H.elements)
        hinv = h.inverse()
        autos.append(tuple(h * g * hinv for g in H.generators))
    if H.is_abelian():
        e = H.exponent()
        for k in range(2, e):
            if math.gcd(k, e) == 1:
                autos.append(tuple(_power(g, k) for g in H.generators))
    return tuple(autos)


def _power(g, k: int):
    acc = g
    for _ in range(k - 1):
        acc = acc * g
    return acc


def render() -> str:
    lines = []
    for name, make in BANDS.items():
        H = make()
        for autos in ((), monodromy(name, H)):
            for p in (0, 2, 3):
                rset = gerbe_rset(H, p, autos)
                res = gerbe_motive(GerbeDatum(H, autos, BASE, "P1"), p)
                record = {"band": name, "p": p, "monodromy": len(autos),
                          "elements": [[[list(x) for x in sub], j] for sub, j in rset.elements],
                          "aut_perms": [list(a.images) for a in rset.aut_perms],
                          "distinguished": rset.distinguished,
                          "motive": poincare_polynomial(res.motive),
                          "orbit_sizes": list(res.orbit_sizes)}
                lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def test_gerbe_rsets_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
