"""Correspondences between Tate motives and their idempotent calculus.

A correspondence is a twist-graded family of exact rational matrices: between
Tate pieces only the equal-twist blocks can be nonzero, so the representation
keeps one block per twist.  Composition order is right-to-left throughout:
``compose(x, y)`` applies y first and requires x.source == y.target.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from ._record import record
from .errors import (
    NotEquidegreeError,
    NotIdempotentError,
    NotTotalError,
    ShapeMismatchError,
    check,
)
from .motives import UNIT, Motive

Matrix = tuple[tuple[Fraction, ...], ...]
_ZERO, _ONE = Fraction(0), Fraction(1)  # the incidence entries, shared by every graph block


def matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(n: int, m: int) -> Matrix:
    return tuple((Fraction(0),) * m for _ in range(n))


def eye(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product: integer numerators over one common denominator per
    factor, multiplied by _int_mul; each entry becomes a Fraction once."""
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    da = math.lcm(*(x.denominator for row in a for x in row))
    db = math.lcm(*(x.denominator for row in b for x in row))
    an = [[x.numerator * (da // x.denominator) for x in row] for row in a]
    bn = [[x.numerator * (db // x.denominator) for x in row] for row in b]
    return tuple(tuple(Fraction(x, da * db) for x in row) for row in _int_mul(an, bn))


def mat_transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns, exact over Q."""
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(m):
        pivot = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in rows), tuple(pivots)


@record
class Correspondence:
    """A morphism between pure-Tate motives, one rational block per twist.

    blocks[t] has shape (target multiplicity at t) x (source multiplicity at t);
    twists where either side vanishes carry no block (the zero map).
    """

    source: Motive
    target: Motive
    blocks: Mapping[int, Matrix]

    def __post_init__(self):
        for M, name in ((self.source, "source"), (self.target, "target")):
            if not M.is_unit_only():
                raise ShapeMismatchError(f"{name} must be a pure Tate motive")
        src = self.source.unit_multiplicities()
        tgt = self.target.unit_multiplicities()
        for t, block in self.blocks.items():
            rows = len(block)
            cols = len(block[0]) if block else 0
            if rows != tgt.get(t, 0) or cols != src.get(t, 0):
                raise ShapeMismatchError(
                    f"block at twist {t} has shape {rows}x{cols}, expected "
                    f"{tgt.get(t, 0)}x{src.get(t, 0)}")
        object.__setattr__(self, "blocks", dict(self.blocks))

    def block(self, t: int) -> Matrix:
        if t in self.blocks:
            return self.blocks[t]
        return zeros(self.target.unit_multiplicity(t), self.source.unit_multiplicity(t))

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def __eq__(self, other) -> bool:
        if not isinstance(other, Correspondence):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        twists = set(self.blocks) | set(other.blocks)
        return all(self.block(t) == other.block(t) for t in twists)

    @classmethod
    def identity(cls, M: Motive) -> "Correspondence":
        return cls(M, M, {t: eye(m) for t, m in M.unit_multiplicities().items()})

    @classmethod
    def zero(cls, source: Motive, target: Motive) -> "Correspondence":
        return cls(source, target, {})

    @classmethod
    def single_twist(cls, twist: int, rows: Sequence[Sequence]) -> "Correspondence":
        """Convenience: a correspondence concentrated in one twist."""
        m = matrix(rows)
        src = Motive.lefschetz(twist, len(m[0]) if m else 0)
        tgt = Motive.lefschetz(twist, len(m))
        return cls(src, tgt, {twist: m})


def compose(x: Correspondence, y: Correspondence) -> Correspondence:
    """x after y: requires x.source == y.target, maps y.source to x.target."""
    if x.source != y.target:
        raise ShapeMismatchError("compose needs x.source == y.target")
    twists = set(x.source.unit_multiplicities()) | set(y.source.unit_multiplicities()) \
        | set(x.target.unit_multiplicities())
    blocks = {}
    for t in twists:
        rows = x.target.unit_multiplicity(t)
        cols = y.source.unit_multiplicity(t)
        mid = x.source.unit_multiplicity(t)
        if rows and cols:
            blocks[t] = mat_mul(x.block(t), y.block(t)) if mid else zeros(rows, cols)
    return Correspondence(y.source, x.target, blocks)


def transpose(x: Correspondence) -> Correspondence:
    """Blockwise matrix transpose with source and target swapped."""
    return Correspondence(x.target, x.source,
                          {t: mat_transpose(b) for t, b in x.blocks.items()})


def graph_correspondences(f: Sequence[int], n: int, k: int
                          ) -> tuple[Correspondence, Correspondence]:
    """Pullback and pushforward of a total map f: {0..n-1} -> {0..k-1}.

    The pullback maps the k-point side to the n-point side by duplicating
    along fibers; the pushforward is its transpose.
    """
    f = list(f)
    _fiber_sizes(f, n, k)  # raises NotTotalError unless f is total into 0..k-1
    pull_block = tuple((_ZERO,) * j + (_ONE,) + (_ZERO,) * (k - 1 - j) for j in f)
    pull = Correspondence(Motive.point(k), Motive.point(n), {0: pull_block})
    return pull, transpose(pull)


def _fiber_sizes(f: Sequence[int], n: int, k: int) -> list[int]:
    """Fiber sizes of a map f: {0..n-1} -> {0..k-1}; NotTotalError if f is not one."""
    if len(f) != n or any(not 0 <= v < k for v in f):
        raise NotTotalError(f"map must send all {n} points into 0..{k - 1}")
    return [f.count(j) for j in range(k)]


@record
class SplitFactor:
    """An idempotent split: image motive with inclusion and retraction."""

    image: Motive
    inclusion: Correspondence   # image -> ambient
    retraction: Correspondence  # ambient -> image


def is_idempotent(p: Correspondence) -> bool:
    return p.is_endomorphism() and compose(p, p) == p


def split_idempotent(p: Correspondence) -> SplitFactor:
    """Factor an exact idempotent as inclusion o retraction with retraction o
    inclusion the identity of the image; verified before returning."""
    if not is_idempotent(p):
        raise NotIdempotentError("correspondence is not an idempotent endomorphism")
    image_terms = []
    inc_blocks = {}
    ret_blocks = {}
    for t, mult in p.source.unit_multiplicities().items():
        block = p.block(t)
        reduced, pivots = rref(block)
        rank = len(pivots)
        if rank == 0:
            continue
        image_terms.append((t, rank))
        # inclusion: the pivot columns of p; retraction: the nonzero rref rows
        inc_blocks[t] = tuple(tuple(block[i][c] for c in pivots) for i in range(mult))
        ret_blocks[t] = reduced[:rank]
    image = Motive.of([(UNIT, t, r) for t, r in image_terms])
    inclusion = Correspondence(image, p.source, inc_blocks)
    retraction = Correspondence(p.source, image, ret_blocks)
    check("corresp.inclusion_retraction", compose(inclusion, retraction) == p,
          "inclusion o retraction differs from the idempotent")
    check("corresp.retraction_inclusion",
          compose(retraction, inclusion) == Correspondence.identity(image),
          "retraction o inclusion is not the identity")
    return SplitFactor(image, inclusion, retraction)


def splitting_certificate(f: Sequence[int], n: int, k: int, m: int) -> SplitFactor:
    """Split the averaging idempotent of a degree-m cover of finite sets.

    f must be surjective with all fibers of size m; then (1/m) * pushforward
    is a left inverse of the pullback and the target motive becomes a direct
    factor of the source motive.
    """
    fibers = _fiber_sizes(f, n, k)
    if any(size != m for size in fibers):
        raise NotEquidegreeError(f"fiber sizes {fibers} are not all {m}")
    pull, push = graph_correspondences(f, n, k)
    # pull = a/d and push = b/d (one block each, at twist 0); both identities scaled by s = m*d*d
    d = math.lcm(*(x.denominator for y in (pull, push) for row in y.block(0) for x in row))
    a, b = ([[x.numerator * (d // x.denominator) for x in row] for row in y.block(0)]
            for y in (pull, push))
    s = m * d * d
    check("corresp.left_inverse", push.source == pull.target and push.target == pull.source
          and _int_mul(b, a) == [[s * (i == j) for j in range(k)] for i in range(k)],
          "scaled pushforward is not a left inverse")
    c = _int_mul(a, b)
    check("corresp.cover_idempotent", _int_mul(c, c) == [[s * x for x in row] for row in c],
          "cover projector is not idempotent")
    retraction = Correspondence(push.source, push.target,
                                {0: tuple(tuple(Fraction(x, m * d) for x in row) for row in b)})
    return SplitFactor(pull.source, pull, retraction)


def _int_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, r, col)) for col in cols] for r in a]
