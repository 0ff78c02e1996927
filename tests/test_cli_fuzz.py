"""The command line under structural mutations of its input documents.

Each example takes one of the sample and golden documents, applies one to three
mutations at random places in its JSON tree (a value swapped for one of another
type, a key deleted, an extra key, an integer moved by one or negated, an array
shuffled or truncated), and runs one command on it through ``main`` in process,
sometimes with a ``--characteristic`` flag.  The run must exit 0 or 2 with no
traceback, and an exit-2 message must be one line naming the JSON path or the
flag it refuses: ``error: <path or --flag>: ...``.  The documents are small
groups (degree at most 12, at most S6), so a mutated group is either small or
refused at the element cap.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from stacky.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "sample_inputs").glob("*.json")) + sorted(
    (ROOT / "tests" / "golden" / "cli_docs").glob("*.json"))
COMMANDS = (["group"], ["group", "--chars"], ["motive", "quotient"], ["motive", "bh"],
            ["motive", "gerbe"], ["motive", "curve"], ["verify", "--check", "inertia-dim"],
            ["verify", "--check", "kunneth"])
OTHER_TYPES = (None, True, 0, -1, 1.5, "x", [], {})
# a flag, or a JSON path: a key followed by keys and indices
REFUSAL = re.compile(r"error: (--[a-z]+(-[a-z]+)*|[A-Za-z]+(\.[A-Za-z]+|\[\d+\])*): [^\n]+\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _places(node, path=()):
    """Every place in a JSON tree, as the path of keys and indices that reaches it."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _places(child, path + (key,))


def _mutate(data, doc):
    """One mutation at a drawn place of doc[0], the tree held in a one-item list so
    that the root can be replaced too."""
    path = data.draw(st.sampled_from(list(_places(doc[0]))))
    parent = doc
    key = 0
    for step in path:
        parent, key = parent[key], step
    value = parent[key]
    kinds = ["type"]
    if isinstance(parent, dict):
        kinds.append("delete")
    if isinstance(value, dict):
        kinds.append("extra")
    if isinstance(value, int) and not isinstance(value, bool):
        kinds.append("integer")
    if isinstance(value, list) and value:
        kinds += ["shuffle", "truncate"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "type":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(value)])))
    elif kind == "delete":
        del parent[key]
    elif kind == "extra":
        value[data.draw(st.sampled_from(["extra", "dim", "size", "hset"]))] = 0
    elif kind == "integer":
        parent[key] = data.draw(st.sampled_from([value - 1, value + 1, -value]))
    elif kind == "shuffle":
        parent[key] = data.draw(st.permutations(value))
    else:
        parent[key] = value[:data.draw(st.integers(0, len(value) - 1))]


@settings(max_examples=150)
@given(st.data())
def test_mutated_documents_exit_0_or_2_with_a_named_refusal(workdir, data):
    source = data.draw(st.sampled_from(DOCS), label="document")
    doc = [json.loads(source.read_text(encoding="utf-8"))]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(data, doc)
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc[0]), encoding="utf-8")
    args = [*data.draw(st.sampled_from(COMMANDS), label="command"), "--input", str(path)]
    flag = data.draw(st.none() | st.integers(-2, 9), label="--characteristic")
    if flag is not None:
        args.append(f"--characteristic={flag}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*args, "--format", "json"])
    stderr = err.getvalue()
    assert rc in (0, 2), (rc, stderr)
    assert "Traceback" not in stderr
    if rc == 2:
        assert out.getvalue() == ""
        assert REFUSAL.fullmatch(stderr), stderr
