"""Cyclotomic arithmetic tests: exact identities plus a numeric cross-check."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest

import oracles
from stacky.cyclo import (
    Cyclotomic,
    _exponent_vector,
    _power_residues,
    _reduce_exponents,
    cyclotomic_polynomial,
    euler_phi,
)


def test_cyclotomic_polynomials_match_naive_oracle():
    # up to 72, past exponent 60 (of S6 and of C60); the oracle divides x^e - 1
    for e in range(1, 73):
        naive = [Fraction(c) for c in oracles.cyclotomic_poly_naive(e)]
        assert [Fraction(c) for c in cyclotomic_polynomial(e)] == naive
        assert len(naive) - 1 == euler_phi(e)


def test_zeta3_sum_is_minus_one():
    # oracle: reduce zeta + zeta^2 against 1 + x + x^2
    z = Cyclotomic.zeta(3)
    assert z + z * z == Cyclotomic.from_rational(-1)
    assert (z + z * z).is_rational()


def test_zeta4_square_is_minus_one():
    z = Cyclotomic.zeta(4)
    assert z * z == -1 + Cyclotomic.from_rational(0)
    assert z * z == Cyclotomic.from_rational(-1)


def test_conjugation_fixes_rationals_and_inverts_zeta():
    q = Cyclotomic.from_rational(Fraction(7, 3))
    assert q.conjugate() == q
    z = Cyclotomic.zeta(5)
    assert z.conjugate() == Cyclotomic.zeta(5, 4)
    assert (z * z.conjugate()) == Cyclotomic.from_rational(1)


def test_mixed_conductor_equality_and_promotion():
    # zeta_6 = -zeta_3^2
    z6 = Cyclotomic.zeta(6)
    z3 = Cyclotomic.zeta(3)
    assert z6 == -(z3 * z3)
    assert z3 == Cyclotomic.zeta(6, 2)
    assert Cyclotomic.from_rational(5).promoted(12).coeffs[0] == 5
    with pytest.raises(ValueError):
        Cyclotomic.zeta(4).promoted(6)


def test_rational_detection():
    z = Cyclotomic.zeta(8)
    v = z * z * z * z  # zeta_8^4 = -1
    assert v.is_rational() and v.rational_part() == -1
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_part()


def _numeric(x: Cyclotomic) -> complex:
    zeta = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * zeta ** i for i, c in enumerate(x.coeffs))


def test_field_axioms_against_numeric_embedding():
    rng = random.Random(11)
    vals = []
    for _ in range(12):
        e = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(euler_phi(e))]
        vals.append(Cyclotomic(e, coeffs))
    for x in vals:
        for y in vals:
            assert x + y == y + x
            assert x * y == y * x
            assert abs(_numeric(x * y) - _numeric(x) * _numeric(y)) < 1e-9
            assert abs(_numeric(x + y) - (_numeric(x) + _numeric(y))) < 1e-9
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    x, y, z = vals[0], vals[1], vals[2]
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_division_by_rational():
    z = Cyclotomic.zeta(5)
    assert (z / 2) * 2 == z
    assert (z / Fraction(3, 7)) * Fraction(3, 7) == z


def test_power_relations():
    for e in (2, 3, 4, 6, 8, 12):
        z = Cyclotomic.zeta(e)
        acc = Cyclotomic.from_rational(1)
        for _ in range(e):
            acc = acc * z
        assert acc == Cyclotomic.from_rational(1)
        # sum of all e-th roots of unity vanishes for e > 1
        total = Cyclotomic.from_rational(0)
        for k in range(e):
            total = total + Cyclotomic.zeta(e, k)
        assert total == Cyclotomic.from_rational(0)


def test_sort_key_is_stable_under_promotion():
    z3 = Cyclotomic.zeta(3)
    assert z3.sort_key(12) == Cyclotomic.zeta(12, 4).sort_key(12)


def test_str_rendering():
    assert str(Cyclotomic.from_rational(Fraction(3, 2))) == "3/2"
    assert str(Cyclotomic.zeta(5)) == "z5"
    assert str(Cyclotomic.zeta(5, 2)) == "z5^2"


# ---------------------------------------------------------------------------
# Integer kernel: exponent vectors over zeta_e and one reduction mod Phi_e.

def test_power_residue_table_matches_zeta():
    for e in range(1, 61):
        table = _power_residues(e)
        assert len(table) == e
        for k in range(e):
            coeffs = [0] * euler_phi(e)
            for j, c in table[k]:
                coeffs[j] = c
            assert Cyclotomic(e, coeffs).coeffs == Cyclotomic.zeta(e, k).coeffs


def _from_vector(vec, den, e) -> Cyclotomic:
    return Cyclotomic(e, [Fraction(c, den) for c in _reduce_exponents(vec, e)])


def test_exponent_vector_round_trips_with_common_denominator():
    rng = random.Random(5)
    for _ in range(30):
        e = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
        divisors = [d for d in range(1, e + 1) if e % d == 0]
        values = []
        for _ in range(4):
            d = rng.choice(divisors)
            values.append(Cyclotomic(d, [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                                         for _ in range(euler_phi(d))]))
        vecs, den = _exponent_vector(values, e)
        assert all(isinstance(c, int) for vec in vecs for _, c in vec)
        assert all(den % c.denominator == 0 for v in values for c in v.coeffs)
        for v, vec in zip(values, vecs):
            assert _from_vector(vec, den, e) == v
            # conjugation negates exponents
            assert _from_vector([(-k, c) for k, c in vec], den, e) == v.conjugate()
    with pytest.raises(ValueError):
        _exponent_vector([Cyclotomic.zeta(4)], 6)


def test_products_add_exponents_and_reduce_once():
    rng = random.Random(8)
    e = 12
    for _ in range(20):
        x = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(euler_phi(e))])
        y = Cyclotomic(4, [rng.randint(-3, 3) for _ in range(euler_phi(4))])
        (xv, yv), den = _exponent_vector([x, y], e)
        assert den == 1
        prod = [(a + b, u * w) for a, u in xv for b, w in yv]
        assert _from_vector(prod, 1, e) == x * y
