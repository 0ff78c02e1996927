"""Rules on the package source itself.

``python -O`` strips ``assert`` statements, so a self-check written as one
would vanish silently; the package raises ``RuntimeError("internal error:
...")`` instead, which the CLI reports with exit code 3.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stacky"


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert sorted(SOURCE.glob("*.py")), f"no sources under {SOURCE}"
    assert found == [], f"assert statements in the package: {', '.join(found)}"
