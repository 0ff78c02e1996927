"""Per-layer tracing for the benchmark's traced runs.

A layer is one module of ``src/stacky``.  The tracer wraps the public
functions and methods of every layer from outside and rebinds each name
wherever a module imported it (``decomp.cyclic_subgroup_classes``,
``stacky.character_table`` and so on), so no code in ``src/stacky`` changes.

* A span is recorded only where a call crosses into another layer; a call
  that stays inside its layer is counted but opens no span.  Spans are kept
  in memory and written out when the pass ends.
* The value types ``Perm`` and ``Cyclotomic`` run millions of operations, so
  their operators (and two accessors called once per point by orbit
  counting, see AGGREGATE) get aggregate timers instead of spans: a count per
  method, and the time of the outermost one, which is charged to its layer
  and taken off the span that called it.
* Self time of a layer = its spans' durations minus the durations of their
  child spans and of the operators they called, plus its operators' time.
  ``Fraction`` is not wrapped, so its time stays with the calling layer.
"""

from __future__ import annotations

import functools
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("perms", "cyclo", "chars", "motives", "decomp", "corresp", "verify", "cli")

# Methods timed in aggregate instead of with spans.  The operators of the
# value types run millions of times; hashing, comparison and point evaluation
# are left out, being cheap and so frequent that wrapping them would swamp
# the measurement.  The two accessors are the action callbacks that
# perms.orbit_count calls once per (element, point).
AGGREGATE = {
    "perms": {"Perm": ("__init__", "__mul__", "inverse", "order", "cycles", "is_identity",
                       "cycle_string", "identity", "from_cycles")},
    "cyclo": {"Cyclotomic": ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                             "__neg__", "__mul__", "__rmul__", "__truediv__", "conjugate",
                             "promoted", "from_rational", "zeta", "is_zero", "is_rational",
                             "rational_part", "sort_key", "__eq__", "__str__")},
    "motives": {"EquivariantModel": ("action_of",)},
    "decomp": {"InjectiveCharacters": ("act",)},
}
# Their operators are counted on their own, not in the layer's calls.
VALUE_TYPES = ("perms.Perm.", "cyclo.Cyclotomic.")
# Dunder methods of the other classes that do real work and get spans.
SPAN_DUNDERS = ("__init__", "__post_init__", "__add__", "__mul__")

# Span record layout: (span id, parent id, name, layer, start, end, operator seconds).
ROOT_LAYER = "bench"


def self_times(spans, operator_seconds=None) -> dict[str, float]:
    """Self time per layer from closed spans and aggregate operator times.

    A span's self time is its duration minus the durations of its direct
    child spans and the operator time charged to it.
    """
    child = defaultdict(float)
    for _sid, parent, _name, _layer, start, end, _ops in spans:
        child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _name, layer, start, end, ops in spans:
        out[layer] += (end - start) - child[sid] - ops
    for layer, seconds in (operator_seconds or {}).items():
        out[layer] += seconds
    return dict(out)


class Tracer:
    """Wraps the stacky layers and records spans and counters while active."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()        # by qualified name, functions and methods
        self.inclusive: defaultdict = defaultdict(float)   # outermost call time by name
        self.op_calls: Counter = Counter()     # aggregate-timed calls by qualified name
        self.op_seconds: defaultdict = defaultdict(float)  # by layer
        self.counts: Counter = Counter()       # derived counters, see _observe
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._op_depth = 0
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def job(self, name: str) -> "_Job":
        """Context manager: activate tracing and open a root span for one job."""
        return _Job(self, name)

    # -- wrapping -----------------------------------------------------------

    def _wrap_function(self, fn, layer: str, qualname: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[qualname] += 1
            if tracer._op_depth:
                return fn(*args, **kwargs)
            stack = tracer._stack
            top = stack[-1]
            frame = None
            if top[3] != layer:
                frame = [tracer._new_id(), top[0], qualname, layer, 0.0, 0.0]
                stack.append(frame)
            depth = tracer._open[qualname]
            tracer._open[qualname] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open[qualname] = depth
                if not depth:
                    tracer.inclusive[qualname] += end - start
                if frame is not None:
                    stack.pop()
                    tracer.spans.append((frame[0], frame[1], qualname, layer, start, end,
                                         frame[5]))
            tracer._observe(qualname, result)
            return result

        return traced

    def _wrap_operator(self, fn, layer: str, key: str):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.op_calls[key] += 1
            if tracer._op_depth:
                return fn(*args, **kwargs)
            tracer._op_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._op_depth = 0
                tracer._stack[-1][5] += elapsed
                tracer.op_seconds[layer] += elapsed

        return timed

    def _observe(self, qualname: str, result) -> None:
        """Derived counters that need the returned value."""
        if qualname == "perms.generate_group":
            self.counts["perms.group_elements"] += result.order
        elif qualname == "perms.cyclic_subgroup_classes":
            self.counts["perms.cyclic_classes"] += len(result)
        elif qualname in ("decomp.cyclotomic_inertia", "decomp.inertia"):
            self.counts["decomp.components"] += len(result)
        elif qualname.startswith("verify.check_"):
            self.counts["verify.reports"] += 1
            self.counts["verify.passed"] += bool(result.passed)

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        op_names = AGGREGATE.get(layer, {}).get(cls.__name__, ())
        for name, attr in list(vars(cls).items()):
            is_op = name in op_names
            if not is_op and name.startswith("_") and name not in SPAN_DUNDERS:
                continue
            kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if kind else attr
            if not isinstance(fn, types.FunctionType):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            wrapped = (self._wrap_operator(fn, layer, qualname) if is_op
                       else self._wrap_function(fn, layer, qualname))
            self._set(cls, name, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        """Wrap every layer and rebind the wrapped names in every stacky namespace."""
        import importlib

        import stacky

        modules = {layer: importlib.import_module(f"stacky.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    wrapped = self._wrap_function(obj, layer, f"{layer}.{name}")
                    replaced[id(obj)] = wrapped
        for ns in [stacky, *modules.values()]:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    self._set(ns, name, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        """Calls into the layer, not counting the value types' operators."""
        calls = [*self.calls.items(), *((name, n) for name, n in self.op_calls.items()
                                        if not name.startswith(VALUE_TYPES))]
        return sum(n for name, n in calls if name.split(".", 1)[0] == layer)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (the cli.startup_ms
        metric is measured by the harness, not here)."""
        own = self_times(self.spans, self.op_seconds)
        inc = self.inclusive
        ops = self.op_calls
        return {
            "perms.self_s": own.get("perms", 0.0),
            "perms.calls": self.layer_calls("perms"),
            "perms.perm_new": ops["perms.Perm.__init__"],
            "perms.perm_mul": ops["perms.Perm.__mul__"],
            "perms.group_elements": self.counts["perms.group_elements"],
            "perms.cyclic_classes": self.counts["perms.cyclic_classes"],
            "perms.perm_op_s": self.op_seconds["perms"],
            "cyclo.self_s": own.get("cyclo", 0.0),
            "cyclo.mul": ops["cyclo.Cyclotomic.__mul__"] + ops["cyclo.Cyclotomic.__rmul__"],
            "cyclo.add": ops["cyclo.Cyclotomic.__add__"] + ops["cyclo.Cyclotomic.__radd__"],
            "cyclo.conj": ops["cyclo.Cyclotomic.conjugate"],
            "cyclo.op_s": self.op_seconds["cyclo"],
            "chars.self_s": own.get("chars", 0.0),
            "chars.table_s": inc["chars.character_table"],
            "chars.ring_s": inc["chars.rep_ring"],
            "chars.tables": self.calls["chars.character_table"],
            "chars.inner_products": self.calls["chars.inner_product"],
            "motives.self_s": own.get("motives", 0.0),
            "motives.calls": self.layer_calls("motives"),
            "motives.models": self.calls["motives.EquivariantModel.__init__"],
            "decomp.self_s": own.get("decomp", 0.0),
            "decomp.calls": self.layer_calls("decomp"),
            "decomp.components": self.counts["decomp.components"],
            "corresp.self_s": own.get("corresp", 0.0),
            "corresp.calls": self.layer_calls("corresp"),
            "verify.self_s": own.get("verify", 0.0),
            "verify.reports": self.counts["verify.reports"],
            "verify.passed": self.counts["verify.passed"],
            "cli.self_s": own.get("cli", 0.0),
            "cli.parse_s": inc["cli.load_document"] + inc["cli.build_parser"],
            "cli.cmd_s": sum(s for name, s in inc.items() if name.startswith("cli.cmd_")),
            "cli.render_s": inc["cli.render_json"] + inc["cli.render_text"],
        }


class _Job:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Tracer:
        tr = self.tracer
        self.frame = [tr._new_id(), 0, self.name, ROOT_LAYER, 0.0, 0.0]
        tr._stack.append(self.frame)
        tr.active = True
        self.start = perf_counter()
        return tr

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tr = self.tracer
        tr.active = False
        tr._stack.pop()
        f = self.frame
        tr.spans.append((f[0], 0, self.name, ROOT_LAYER, self.start, end, f[5]))
