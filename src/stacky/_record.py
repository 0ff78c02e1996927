"""Frozen value records: ``dataclass(frozen=True)`` behaviour from generic closures, without
the per-class ``exec`` and the ``inspect`` import that were most of a CLI call's import time."""

from operator import attrgetter

_MISSING = object()


class field:
    """Options of one field, as for the standard ``field``."""

    def __init__(self, *, default=_MISSING, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


def record(cls):
    """Make ``cls`` a frozen record over its annotated fields, in order.  Its
    instances keep a ``__dict__`` (no ``__slots__``): ``cached_property`` needs it."""
    fields = {}
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, field):
            delattr(cls, name)
            if spec.default is not _MISSING:
                setattr(cls, name, spec.default)
        fields[name] = spec if isinstance(spec, field) else field(default=spec)
    init_names = tuple(n for n, f in fields.items() if f.init)
    defaults = {n: f.default for n, f in fields.items() if f.init and f.default is not _MISSING}
    repr_names = tuple(n for n, f in fields.items() if f.repr)
    compared = tuple(n for n, f in fields.items() if f.compare)
    key = attrgetter(*compared) if len(compared) > 1 else (
        lambda obj: tuple(getattr(obj, n) for n in compared))
    post_init, arity = hasattr(cls, "__post_init__"), len(init_names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:  # exact positional calls skip the binding
            values = {**defaults, **kwargs, **dict(zip(init_names, args))}
            if (len(args) > arity or kwargs.keys() & init_names[:len(args)]
                    or values.keys() != set(init_names)):
                raise TypeError(f"{cls.__qualname__}() takes the fields {init_names}")
            args = [values[n] for n in init_names]
        self.__dict__.update(zip(init_names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in repr_names)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__match_args__ = init_names
    return cls
