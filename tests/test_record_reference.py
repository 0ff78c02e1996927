"""Frozen records against the standard library's frozen dataclasses.

Every value class of the package is built by ``stacky._record.record``.
Each is checked against a ``dataclasses.dataclass(frozen=True)`` twin made
from its annotations and field options as written in the class body, with
the body's own methods.  Both are constructed from the same values, taken
from real results: the seeded groups, S4-S6, the sample and golden
documents and ``run_suite(0, 3)``.  They must agree on repr, ``==`` and
``!=``, hash, ``__match_args__``, defaults and ``init=False`` fields, and
both must refuse a bad call and a field assignment or deletion with the same
exception type and the same assignment message.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stacky
from stacky.chars import character_table, rep_ring
from stacky.cli import load_document
from stacky.corresp import Correspondence, split_idempotent, splitting_certificate
from stacky.decomp import (
    bh_motive,
    cyclotomic_inertia,
    gerbe_motive,
    gerbe_rset,
    inertia,
    inertial_quotient_motive,
    orbifold_curve_motive,
)
from stacky.motives import Atom, EquivariantModel, Motive, chow_dim
from stacky.perms import (
    Perm,
    conjugacy_classes,
    cyclic_subgroup_classes,
    generate_group,
    symmetric_group,
)
from stacky.verify import run_suite, suite_inputs

from test_perm_properties import CASES

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "sample_inputs").glob("*.json")) + sorted(
    (ROOT / "tests" / "golden" / "cli_docs").glob("*.json"))

RECORD_NAMES = {
    "perms": ["ConjugacyClass", "CyclicClass", "Subgroup"],
    "chars": ["CharacterTable", "RepresentationRing"],
    "motives": ["Atom", "ChowDimensions", "FixedLocus", "Motive"],
    "corresp": ["Correspondence", "SplitFactor"],
    "decomp": ["CharacterOrbitSet", "ClassifyingStackMotive", "ComponentContribution",
               "CyclotomicInertiaComponent", "GerbeDatum", "GerbeMotive", "InertiaComponent",
               "InertialMotive", "OrbifoldCurveMotive"],
    "verify": ["VerificationReport"],
    "cli": ["InputDocument"],
}


def _is_record(obj, module: str) -> bool:
    return (isinstance(obj, type) and obj.__module__ == module
            and getattr(obj.__init__, "__module__", None) == "stacky._record")


def _records() -> list[type]:
    out = []
    for layer in RECORD_NAMES:
        module = importlib.import_module(f"stacky.{layer}")
        out += sorted((obj for obj in vars(module).values() if _is_record(obj, module.__name__)),
                      key=lambda cls: cls.__name__)
    return out


RECORDS = _records()


def test_the_value_classes_are_records():
    found = {layer: [c.__name__ for c in RECORDS if c.__module__ == f"stacky.{layer}"]
             for layer in RECORD_NAMES}
    assert found == RECORD_NAMES
    assert len(RECORDS) == 22


# ---------------------------------------------------------------------------
# The dataclass twin.

def _declared_fields(cls) -> list[tuple]:
    """(name, type, field) per annotated name of the class body, with the
    ``field(...)`` options or the default written there."""
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    out = []
    for node in body:
        if not isinstance(node, ast.AnnAssign):
            continue
        name, value = node.target.id, node.value
        if value is None:
            out.append((name, object))
        elif isinstance(value, ast.Call) and value.func.id == "field":
            options = {kw.arg: ast.literal_eval(kw.value) for kw in value.keywords}
            out.append((name, object, dataclasses.field(**options)))
        else:
            out.append((name, object, dataclasses.field(default=ast.literal_eval(value))))
    return out


def _twin(cls) -> type:
    """A frozen dataclass with the record's fields and body methods."""
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in ("__dict__", "__weakref__", "__annotations__", "__match_args__")
                 and getattr(value, "__module__", None) != "stacky._record"}
    return dataclasses.make_dataclass(cls.__name__, _declared_fields(cls),
                                      namespace=namespace, frozen=True)


# ---------------------------------------------------------------------------
# Instances from real results.

def _roots():
    groups = [generate_group(degree, [Perm(g) for g in gens]) for degree, gens in CASES[:8]]
    groups += [symmetric_group(n) for n in (4, 5, 6)]
    for G in groups:
        X = EquivariantModel.hset(G, G.degree, G.generators)
        M = inertial_quotient_motive(X, 0)
        yield (conjugacy_classes(G), cyclic_subgroup_classes(G, 0), cyclotomic_inertia(X, 0),
               inertia(X, 0), M, chow_dim(M.motive, 0),
               rep_ring(character_table(G)), bh_motive(G, 0), bh_motive(G, 2))
    for path in DOCUMENTS:
        doc = load_document(str(path))
        yield doc
        p = doc.characteristic
        if doc.model is not None:
            M = inertial_quotient_motive(doc.model, p)
            yield M, chow_dim(M.motive, 1)
        if doc.gerbe is not None:
            yield (gerbe_motive(doc.gerbe, p),
                   gerbe_rset(doc.gerbe.group, p, doc.gerbe.monodromy))
        if doc.curve is not None:
            yield orbifold_curve_motive(*doc.curve)
    for _label, X, H, p in suite_inputs(0, 3):
        yield inertial_quotient_motive(X, p), bh_motive(H, p)
    yield run_suite(0, 3)
    certificate = splitting_certificate([0, 0, 1, 1, 2, 2], 6, 3, 2)
    yield certificate, split_idempotent(Correspondence.single_twist(1, [[1, 1], [0, 0]]))
    yield chow_dim(Motive.of([(Atom.opaque("E"), 1, 2), (Atom.h1(1), 0, 1)]), 1)


@pytest.fixture(scope="module")
def instances() -> dict[type, list]:
    """Up to 12 distinct instances of each record class, found by walking the
    results through containers, records and models."""
    found: dict[type, list] = {cls: [] for cls in RECORDS}
    seen: set[int] = set()
    stack = list(_roots())
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) in found:
            found[type(x)].append(x)
            stack.extend(vars(x).values())
        elif isinstance(x, EquivariantModel):
            stack.extend(vars(x).values())
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
    out = {}
    for cls, objs in found.items():
        distinct = {repr(obj): obj for obj in objs}
        out[cls] = list(distinct.values())[:12]
    return out


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


def _raises(exc_type, fn, *args, **kwargs) -> str:
    with pytest.raises(exc_type) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_a_frozen_dataclass(cls, instances):
    twin = _twin(cls)
    fields = dataclasses.fields(twin)
    init = tuple(f.name for f in fields if f.init)
    required = [f.name for f in fields if f.init and f.default is dataclasses.MISSING]
    assert cls.__match_args__ == twin.__match_args__ == init
    assert instances[cls], f"no {cls.__name__} found"

    pairs = []
    for obj in instances[cls]:
        args = [getattr(obj, name) for name in init]
        a, b = cls(*args), twin(*args)
        assert repr(a) == repr(b) == repr(obj)
        # init=False fields are the ones __post_init__ sets
        assert vars(a) == vars(b)
        assert _hash(a) == _hash(b)
        keywords = dict(zip(init, args))
        assert repr(cls(**keywords)) == repr(b)
        # defaults (which __post_init__ may refuse, as for an opaque atom)
        assert _outcome(cls, *args[:len(required)]) == _outcome(twin, *args[:len(required)])
        pairs.append((a, b))
    for (a1, b1), (a2, b2) in itertools.product(pairs, repeat=2):
        assert (a1 == a2) is (b1 == b2)
        assert (a1 != a2) is (b1 != b2)
    a, b = pairs[0]
    args = [getattr(a, name) for name in init]
    assert (a == b) is (b == a)
    if cls.__eq__.__module__ == "stacky._record":
        # equality holds on the exact class only, not even with a subclass
        assert not a == b and a != b
        assert not a == type("Sub", (cls,), {})(*args)
        assert not b == type("Sub", (twin,), {})(*args)

    # a bad call
    for bad in (lambda c: c(*args, None),
                lambda c: c(*args[:len(required) - 1]) if required else c(*args, None),
                lambda c: c(*args, **{init[0]: args[0]}),
                lambda c: c(*args, unknown=None)):
        _raises(TypeError, bad, cls)
        _raises(TypeError, bad, twin)
    for f in fields:
        if not f.init:
            _raises(TypeError, cls, *args, **{f.name: None})
            _raises(TypeError, twin, *args, **{f.name: None})

    # frozen: every field, and any other name on the exact class
    for name in [f.name for f in fields] + ["unknown"]:
        message = _raises(dataclasses.FrozenInstanceError, setattr, b, name, None)
        assert _raises(AttributeError, setattr, a, name, None) == message
        message = _raises(dataclasses.FrozenInstanceError, delattr, b, name)
        assert _raises(AttributeError, delattr, a, name) == message
    assert repr(a) == repr(b)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # either would bring back about 12 ms of import time to every CLI call
    code = ("import stacky.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(stacky.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
