"""Cyclotomic arithmetic tests: exact identities plus a numeric cross-check."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# Ring axioms at mixed conductors, as properties against the integer kernel.

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@st.composite
def cyclotomics(draw) -> Cyclotomic:
    e = draw(st.sampled_from(CONDUCTORS))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return Cyclotomic(e, draw(st.lists(coeff, min_size=euler_phi(e), max_size=euler_phi(e))))


@settings(max_examples=80)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms_at_mixed_conductors_against_the_integer_kernel(x, y, z):
    e = math.lcm(x.conductor, y.conductor)
    (xv, yv), den = _exponent_vector([x, y], e)
    # the kernel: sums join exponent vectors, products add exponents, one reduction
    assert (x + y).conductor == (x * y).conductor == e
    assert x + y == _from_vector(xv + yv, den, e)
    assert x * y == _from_vector([(a + b, u * w) for a, u in xv for b, w in yv], den * den, e)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x - y == x + (-y) and x - x == 0


@settings(max_examples=80)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_a_ring_automorphism(x, y):
    (xv,), den = _exponent_vector([x], x.conductor)
    assert x.conjugate() == _from_vector([(-k, c) for k, c in xv], den, x.conductor)
    assert x.conjugate().conductor == x.conductor
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    assert Cyclotomic.from_rational(1).conjugate() == 1


@settings(max_examples=80)
@given(cyclotomics(), st.integers(1, 4), st.integers(1, 3))
def test_promotion_then_reduction_loses_nothing(x, f, g):
    e = x.conductor * f
    up = x.promoted(e)
    # promotion scales the exponents by f, then reduces once modulo Phi_e
    (xv,), den = _exponent_vector([x], e)
    assert up.conductor == e and up.coeffs == _from_vector(xv, den, e).coeffs
    assert up == x and abs(_numeric(up) - _numeric(x)) < 1e-9
    # Phi_e is monic and integral, so the reduction brings in no denominator
    assert all(den % c.denominator == 0 for c in up.coeffs)
    # promoting in two steps is promoting at once, and arithmetic commutes with it
    assert up.promoted(e * g).coeffs == x.promoted(e * g).coeffs
    assert (x * x).promoted(e).coeffs == (up * up).coeffs
