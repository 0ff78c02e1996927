"""Reach census: which functions of ``src/stacky`` no command or benchmark job runs.

Run from the repository root:

    python3 tests/reach.py

It traces, with ``sys.setprofile``, every golden CLI run of
``tests/golden/cli_outputs.jsonl`` in both output formats, and the ``tables``,
``inertia`` and ``suite`` job lists of ``perfbench/workloads.py`` at seed 0,
each built and run in this process.  A function counts as reached when any of
them enters it.  Every ``def`` in the package that none of them enters must
have an entry in ``tests/reach_census.json``, marked ``kept`` with the reason
it stays; entries marked ``deleted`` record what the census removed.  The
script exits 1 when an unreached function has no entry, or when an entry
marked ``kept`` is reached or gone (the census is stale), and 0 otherwise.

Its name keeps pytest from collecting it; ``tests/test_reach_census.py`` checks
the census file against the source in tier-1 without running the trace.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "stacky"
CENSUS = ROOT / "tests" / "reach_census.json"
FATES = ("kept", "deleted")
SEED = 0


def defined_functions() -> dict[str, tuple[str, int, int]]:
    """Every ``def`` in the package by its name ``module.Qual.name``: (file, the
    line a code object starts on, which is its first decorator's, line count)."""
    found = {}

    def visit(node, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = (str(path), first, child.end_lineno - first + 1)
                visit(child, name, path)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return found


def load_census() -> dict[str, dict]:
    return json.loads(CENSUS.read_text(encoding="utf-8"))


def _run_golden_cli() -> None:
    from stacky.cli import main
    from test_golden_cli import _path, cases

    for doc, args in cases():
        for fmt in ("json", "text"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main([*args, "--input", str(_path(doc)), "--format", fmt])


def _run_workloads() -> None:
    import workloads

    for name in ("tables", "inertia", "suite"):
        ctx: dict = {}
        for job in workloads.build(name, SEED).jobs:
            ctx[job.id] = job.run(ctx)


def entered_code() -> set:
    """The code objects entered by the traced runs."""
    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        _run_golden_cli()
        _run_workloads()
    finally:
        sys.setprofile(None)
    return seen


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    defined = defined_functions()
    reached = {(code.co_filename, code.co_firstlineno) for code in entered_code()}
    unreached = {name: lines for name, (path, first, lines) in defined.items()
                 if (path, first) not in reached}
    census = load_census()
    problems = [f"{name}: unreached, {lines} lines, and not in the census"
                for name, lines in sorted(unreached.items()) if name not in census]
    for name, entry in sorted(census.items()):
        if entry["fate"] == "kept" and name not in defined:
            problems.append(f"{name}: marked kept but no longer defined")
        elif entry["fate"] == "kept" and name not in unreached:
            problems.append(f"{name}: marked kept but now reached; drop its entry")
    print(f"{len(defined)} functions, {len(unreached)} unreached "
          f"({sum(unreached.values())} lines), {len(census)} census entries")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
