"""Golden character tables and representation-ring constants.

The files under tests/golden/ were recorded before the character-table
arithmetic moved to integer coefficients; every table must still render to
the same bytes.  Regenerate (only for a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden_tables.py
"""

from __future__ import annotations

import json
from pathlib import Path

from stacky.chars import character_table, rep_ring
from stacky.perms import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

TABLE_GROUPS = {
    "S5": lambda: symmetric_group(5),
    "S6": lambda: symmetric_group(6),
    "A5": lambda: alternating_group(5),
    "D8": lambda: dihedral_group(8),
    "Q8": quaternion_group,
    "C24": lambda: cyclic_group(24),
    "C2xC6": lambda: direct_product(cyclic_group(2), cyclic_group(6)),
    # 20 classes against q = 13: eigenspaces of dimension d >= q occur
    "D4xC2xC2": lambda: direct_product(dihedral_group(4),
                                       direct_product(cyclic_group(2), cyclic_group(2))),
    # groups where one cyclic subgroup's powers meet classes of several orders
    "D12": lambda: dihedral_group(12),
    "D15": lambda: dihedral_group(15),
    "A6": lambda: alternating_group(6),
    "S7": lambda: symmetric_group(7),
    "D50": lambda: dihedral_group(50),
}

RING_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "D8": lambda: dihedral_group(8),
    "Q8": quaternion_group,
}


def _lines(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def render_tables() -> str:
    """JSON lines: per group its classes as (order, size) and its degrees,
    then one line per row of rendered values."""
    records: list[dict] = []
    for name, make in TABLE_GROUPS.items():
        T = character_table(make())
        records.append({"group": name, "classes": [[c.order, c.size] for c in T.classes],
                        "degrees": list(T.degrees)})
        records.extend({"group": name, "row": i, "values": [str(v) for v in row]}
                       for i, row in enumerate(T.rows))
    return _lines(records)


def render_rings() -> str:
    """JSON lines: one line per (group, i) holding constants[i][j][k]."""
    records: list[dict] = []
    for name, make in RING_GROUPS.items():
        R = rep_ring(character_table(make()))
        records.extend({"group": name, "i": i, "constants": [list(row) for row in plane]}
                       for i, plane in enumerate(R.constants))
    return _lines(records)


def test_character_tables_match_golden():
    assert render_tables() == (GOLDEN / "character_tables.jsonl").read_text(encoding="utf-8")


def test_rep_ring_constants_match_golden():
    assert render_rings() == (GOLDEN / "rep_ring_constants.jsonl").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "character_tables.jsonl").write_text(render_tables(), encoding="utf-8")
    (GOLDEN / "rep_ring_constants.jsonl").write_text(render_rings(), encoding="utf-8")
