"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values are stored in the power basis 1, zeta, ..., zeta^(phi(e)-1) of a fixed
conductor e, reduced modulo the e-th cyclotomic polynomial.  A value of
conductor e embeds losslessly into any conductor divisible by e; mixed-
conductor arithmetic promotes both operands to the lcm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Rational = Union[int, Fraction]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, low degree first.  Monic, integral: for e > 1, the
    product of (1 - x^d)^mu(e/d) over the divisors d of e.  That is a polynomial
    of degree phi(e), so the power series truncated there is exact, and a
    factor with d > phi(e) is 1 in it."""
    if e == 1:
        return (-1, 1)
    n = euler_phi(e) + 1
    out = [1] + [0] * (n - 1)
    for d in range(1, n):
        mu = _mobius(e // d) if e % d == 0 else 0
        if mu == 1:  # multiply by 1 - x^d
            for k in range(n - 1, d - 1, -1):
                out[k] -= out[k - d]
        elif mu == -1:  # divide by 1 - x^d: multiply by 1 + x^d + x^2d + ...
            for k in range(d, n):
                out[k] += out[k - d]
    return tuple(out)


# ---------------------------------------------------------------------------
# Integer kernel: a value as sum_k c_k zeta_e^k / den with integers c_k and
# one common denominator.  Exponents need not be reduced, so conjugation is
# negation of exponents and products add them; one reduction modulo Phi_e at
# the end recovers the power-basis coefficients.

# one table per conductor in use, e entries of at most phi(e) terms each;
# bounded so a long-running process does not keep every conductor it has met
@lru_cache(maxsize=64)
def _power_residues(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_e for k = 0..e-1, each as sparse (index, coefficient) pairs."""
    phi = cyclotomic_polynomial(e)
    cur = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(e):
        out.append(tuple((j, c) for j, c in enumerate(cur) if c))
        # multiply by x, then cancel the x^phi(e) term with the monic Phi_e
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [c - lead * p for c, p in zip(cur, phi)]
    return tuple(out)


def _exponent_vector(values: Iterable["Cyclotomic"], e: int
                     ) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Each value as sparse (exponent of zeta_e, integer coefficient) pairs,
    over one common denominator for the whole sequence.  Every conductor must
    divide e."""
    values = list(values)
    den = 1
    for v in values:
        for c in v.coeffs:
            if c.denominator != 1:
                den = math.lcm(den, c.denominator)
    vecs = []
    for v in values:
        step = e // v.conductor
        if v.conductor * step != e:
            raise ValueError(f"cannot promote conductor {v.conductor} into {e}")
        vecs.append(tuple((i * step, c.numerator * (den // c.denominator))
                          for i, c in enumerate(v.coeffs) if c))
    return vecs, den


def _reduce_exponents(acc: Iterable[tuple[int, int]], e: int) -> list[int]:
    """Power-basis coefficients at conductor e of sum c * zeta_e^k over (k, c)."""
    table = _power_residues(e)
    out = [0] * euler_phi(e)
    for k, c in acc:
        if c:
            for j, r in table[k % e]:
                out[j] += c * r
    return out


class Cyclotomic:
    """An element of Q(zeta_e) in the reduced power basis of its conductor."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[Rational]):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != euler_phi(conductor):
            raise ValueError(
                f"expected {euler_phi(conductor)} coefficients for conductor {conductor}, "
                f"got {len(cs)}")
        self.conductor = conductor
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Rational) -> "Cyclotomic":
        return cls(1, (Fraction(q),))

    @classmethod
    def zeta(cls, e: int, power: int = 1) -> "Cyclotomic":
        """zeta_e ** power."""
        return cls(e, _reduce_exponents([(power, 1)], e))

    # -- conductor handling --------------------------------------------------

    def promoted(self, e: int) -> "Cyclotomic":
        """The same value expressed at conductor e (self.conductor must divide e)."""
        if e == self.conductor:
            return self
        if e % self.conductor != 0:
            raise ValueError(f"cannot promote conductor {self.conductor} into {e}")
        step = e // self.conductor
        return Cyclotomic(e, _reduce_exponents(
            ((i * step, c) for i, c in enumerate(self.coeffs)), e))

    @staticmethod
    def _common(x: "Cyclotomic", y: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic", int]:
        e = math.lcm(x.conductor, y.conductor)
        return x.promoted(e), y.promoted(e), e

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Cyclotomic":
        if isinstance(v, Cyclotomic):
            return v
        if isinstance(v, (int, Fraction)):
            return Cyclotomic.from_rational(v)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = Cyclotomic._common(self, other)
        return Cyclotomic(e, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return Cyclotomic._coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = Cyclotomic._common(self, other)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    prod[i + j] += x * y
        return Cyclotomic(e, _reduce_exponents(enumerate(prod), e))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        """Division by a nonzero rational only."""
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic(self.conductor, tuple(c / q for c in self.coeffs))
        return NotImplemented

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^-1."""
        e = self.conductor
        return Cyclotomic(e, _reduce_exponents(((-i, c) for i, c in enumerate(self.coeffs)), e))

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Fraction:
        """The value as a Fraction; raises ValueError if it is irrational."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def sort_key(self, conductor: int) -> tuple[Fraction, ...]:
        """Coefficient tuple at a common conductor, for deterministic ordering."""
        return self.promoted(conductor).coeffs

    def __eq__(self, other) -> bool:
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    # equal values can carry different conductors (zeta_6 vs -zeta_3^2), so a
    # conductor-dependent hash would break the hash contract; sort_key() gives
    # a canonical comparable form when one is needed
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyclotomic({self.coeffs[0]})"
        return f"Cyclotomic(e={self.conductor}, {list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.conductor}^{i}" if i > 1 else f"z{self.conductor}")
            else:
                parts.append(f"{c}*z{self.conductor}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts) if parts else "0"
