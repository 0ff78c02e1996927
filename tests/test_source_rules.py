"""Rules on the package source itself.

``python -O`` strips ``assert`` statements, so a self-check written as one
would vanish silently.  The package states each self-check as a call
``check(name, ok, message, *args)`` from ``stacky.errors``, which raises
InternalError, a RuntimeError reported by the CLI with exit code 3; only
``errors.py`` builds that exception and its ``internal error:`` prefix.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stacky"


def _nodes(kind):
    sources = sorted(SOURCE.glob("*.py"))
    assert sources, f"no sources under {SOURCE}"
    return [(path.name, node) for path in sources
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, kind)]


def test_no_assert_statement_in_the_package():
    found = [f"{name}:{node.lineno}" for name, node in _nodes(ast.Assert)]
    assert found == [], f"assert statements in the package: {', '.join(found)}"


def test_no_runtime_error_built_outside_errors_module():
    found = [f"{name}:{node.lineno}" for name, node in _nodes(ast.Call)
             if getattr(node.func, "id", None) == "RuntimeError" and name != "errors.py"]
    assert found == [], f"RuntimeError built outside errors.py: {', '.join(found)}"
