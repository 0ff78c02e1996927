"""Exception hierarchy shared by all stacky modules."""

from __future__ import annotations


class StackyError(Exception):
    """Base class for all errors raised by this package."""


class NonBijectionError(StackyError):
    """An image array does not describe a permutation."""


class GroupTooLargeError(StackyError):
    """Group generation exceeded the configured element or degree cap."""


class BadCharacteristicError(StackyError):
    """Characteristic parameter is neither 0 nor a prime."""


class NotASubgroupError(StackyError):
    """Element set is not a subgroup of the ambient group."""


class NotInNormalizerError(StackyError):
    """Element does not normalize the given cyclic subgroup."""


class NotRationalError(StackyError):
    """Cyclotomic value asserted rational has a nonzero irrational part."""


class NonIntegralConstantError(StackyError):
    """Representation-ring structure constant is not a nonnegative integer."""


class OpaqueTensorError(StackyError):
    """Tensor product of two motives that both contain non-Tate atoms."""


class InconsistentActionError(StackyError):
    """Generator images do not extend to a group action on the model."""


class ShapeMismatchError(StackyError):
    """Correspondence blocks have incompatible shapes or endpoints."""


class NotTotalError(StackyError):
    """Finite-set map is not defined on every point or maps out of range."""


class NotIdempotentError(StackyError):
    """Correspondence is not an idempotent endomorphism."""


class NotEquidegreeError(StackyError):
    """Finite-set cover has fibers of unequal size."""


class NotAnAutomorphismError(StackyError):
    """Generator images do not define a group automorphism."""


class BadOrderError(StackyError):
    """Orbifold point order is below 2."""


class ParseError(StackyError):
    """Input document is not syntactically valid."""


class ValidationError(StackyError):
    """Input document is well-formed but violates a schema constraint."""


class InternalError(RuntimeError):
    """A named self-check failed: a fault of the program, not of its input."""

    def __init__(self, name: str, message: str):
        super().__init__(f"internal error: {message}")
        self.name = name


def check(name: str, ok: object, message: str, *args: object) -> None:
    """Raise InternalError ``name`` unless ``ok``; the text
    ``message.format(*args)`` is built only on failure."""
    if not ok:
        raise InternalError(name, message.format(*args))


def internal_error_text(exc: RuntimeError) -> str:
    """The report line of a RuntimeError: a failed check's own text; any other
    RuntimeError's text, or its type name, under the same prefix."""
    text = str(exc) or type(exc).__name__
    return text if text.startswith("internal error:") else f"internal error: {text}"
