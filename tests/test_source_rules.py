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


def test_trusted_perms_are_wrapped_only_in_perms_and_action_of():
    # group actions are element-aligned image rows; a Perm is wrapped unchecked
    # only where perms builds one from valid permutations, and on demand for
    # the public EquivariantModel.action_of
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "perms.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name == "EquivariantModel"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "action_of"
                   for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_trusted"
                  and id(node) not in allowed]
    assert found == [], f"Perm._trusted called outside perms.py: {', '.join(found)}"
    assert "Perm._trusted" in (SOURCE / "motives.py").read_text(encoding="utf-8")


def test_locus_actions_are_written_only_in_motives():
    # a model owns its declared fixed loci: EquivariantModel._validate_locus
    # stores each one, the two constructors set the attribute, and reading a
    # locus (EquivariantModel.locus) stores nothing; no other code assigns
    # the dict, an item of it, or calls one of its mutating methods
    def names_it(node):
        return isinstance(node, ast.Attribute) and node.attr == "locus_actions"

    writes = []  # (file, enclosing function, "attribute" or "item")
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}  # nested functions come later in the walk
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [
                    node.target]
                for t in targets:
                    for part in t.elts if isinstance(t, ast.Tuple) else [t]:
                        if any(map(names_it, ast.walk(part))):
                            kind = "attribute" if names_it(part) else "item"
                            writes.append((path.name, owner.get(id(node)), kind))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear")
                  and names_it(node.func.value)):
                writes.append((path.name, owner.get(id(node)), "item"))
    assert sorted(set(writes)) == [("motives.py", "__init__", "attribute"),
                                   ("motives.py", "_from_rows", "attribute"),
                                   ("motives.py", "_validate_locus", "item")], writes


def test_class_listings_are_not_called_for_a_side_effect():
    # the group computes its classes on first read; a call whose result is
    # dropped can only be there for a side effect, which no longer exists
    found = [f"{name}:{node.lineno}" for name, node in _nodes(ast.Expr)
             if isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", getattr(node.value.func, "attr", None))
             in ("cyclic_subgroup_classes", "conjugacy_classes")]
    assert found == [], f"class listings called for a side effect: {', '.join(found)}"


def test_every_imported_name_is_used():
    # a deletion can leave an import behind; __init__.py imports to re-export
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    assert found == [], f"imported names never used: {', '.join(found)}"


def test_the_element_route_reads_no_exponent_or_character_row():
    # inertia and inertia_ranks_by_twist are the second route to the refined
    # ranks: neither they nor a decomp function they call reads the recorded
    # conjugation exponents or the kernel and character orbits read off them
    tree = ast.parse((SOURCE / "decomp.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    forbidden = {"exponent_row", "conjugation_kernel", "_kernel"}
    reached, todo, found = set(), ["inertia", "inertia_ranks_by_twist"], []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            read = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if read in forbidden:
                found.append(f"{name}:{node.lineno} {read}")
            elif read in functions:
                todo.append(read)
    assert {"inertia", "inertia_ranks_by_twist", "_orbit_ranks"} <= reached
    assert found == [], f"the element route reads: {', '.join(found)}"
