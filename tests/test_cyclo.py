"""Cyclotomic tests: the package's value type and integer kernel against the
reference field oracles.Cyc, which reduces only by the naive cyclotomic
polynomial, plus the reference field's identities and a numeric cross-check."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from unittest.mock import ANY

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Cyc
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
    # reduce zeta + zeta^2 against 1 + x + x^2
    z = Cyc.zeta(3)
    assert z + z * z == Cyclotomic(1, [-1])
    assert (z + z * z).is_rational()


def test_zeta4_square_is_minus_one():
    z = Cyc.zeta(4)
    assert z * z == -1 + Cyc.of(0)
    assert z * z == Cyclotomic(1, [-1])


def test_conjugation_fixes_rationals_and_inverts_zeta():
    q = Cyc.of(Fraction(7, 3))
    assert q.conjugate() == q
    z = Cyc.zeta(5)
    assert z.conjugate() == Cyclotomic.zeta(5, 4)
    assert (z * z.conjugate()) == Cyclotomic(1, [1])


def test_mixed_conductor_equality_and_promotion():
    # zeta_6 = -zeta_3^2
    z6 = Cyclotomic.zeta(6)
    z3 = Cyclotomic.zeta(3)
    assert z6 == -(Cyc.of(z3) * z3)
    assert z3 == Cyclotomic.zeta(6, 2)
    assert Cyc.of(5).at(12).coeffs[0] == 5
    with pytest.raises(ValueError):
        Cyc.zeta(4).at(6)
    with pytest.raises(ValueError, match="^expected 2 coefficients for conductor 3, got 1$"):
        Cyclotomic(3, [1])
    with pytest.raises(ValueError, match="^conductor must be >= 1$"):
        Cyclotomic(0, [])


def test_rational_detection():
    z = Cyc.zeta(8)
    v = z * z * z * z  # zeta_8^4 = -1
    assert v.is_rational() and v.rational_part() == -1
    assert not z.is_rational()
    with pytest.raises(ValueError, match=r"^Cyclotomic\(e=8, "):
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
        vals.append(Cyc(e, coeffs))
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
    z = Cyc.zeta(5)
    assert (z / 2) * 2 == z
    assert (z / Fraction(3, 7)) * Fraction(3, 7) == z


def test_power_relations():
    # the package's roots of unity, multiplied and summed in the reference field
    for e in (2, 3, 4, 6, 8, 12):
        z = Cyclotomic.zeta(e)
        acc = Cyc.of(1)
        for _ in range(e):
            acc = acc * z
        assert acc == Cyclotomic(1, [1])
        # sum of all e-th roots of unity vanishes for e > 1
        total = Cyc.of(0)
        for k in range(e):
            total = total + Cyclotomic.zeta(e, k)
        assert total.is_zero()


def test_sort_key_is_stable_under_promotion():
    z3 = Cyc.zeta(3)
    assert z3.sort_key(12) == Cyc.zeta(12, 4).sort_key(12) == Cyclotomic.zeta(12, 4).coeffs


def test_str_rendering():
    assert str(Cyclotomic(1, [Fraction(3, 2)])) == "3/2"
    assert str(Cyclotomic.zeta(5)) == "z5"
    assert str(Cyclotomic.zeta(5, 2)) == "z5^2"


# ---------------------------------------------------------------------------
# Integer kernel: exponent vectors over zeta_e and one reduction mod Phi_e,
# against the reference field's naive reduction.

def test_power_residue_table_matches_zeta():
    for e in range(1, 61):
        table = _power_residues(e)
        assert len(table) == e
        for k in range(e):
            coeffs = [0] * euler_phi(e)
            for j, c in table[k]:
                coeffs[j] = c
            assert tuple(coeffs) == Cyc.zeta(e, k).coeffs == Cyclotomic.zeta(e, k).coeffs


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
            values.append(Cyc(d, [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                                  for _ in range(euler_phi(d))]))
        vecs, den = _exponent_vector(values, e)
        assert all(isinstance(c, int) for vec in vecs for _, c in vec)
        assert all(den % c.denominator == 0 for v in values for c in v.coeffs)
        for v, vec in zip(values, vecs):
            assert _from_vector(vec, den, e).coeffs == v.at(e).coeffs
            # conjugation negates exponents
            assert _from_vector([(-k, c) for k, c in vec], den, e).coeffs == \
                v.conjugate().at(e).coeffs
    with pytest.raises(ValueError):
        _exponent_vector([Cyclotomic.zeta(4)], 6)


def test_products_add_exponents_and_reduce_once():
    rng = random.Random(8)
    e = 12
    for _ in range(20):
        x = Cyc(e, [rng.randint(-3, 3) for _ in range(euler_phi(e))])
        y = Cyc(4, [rng.randint(-3, 3) for _ in range(euler_phi(4))])
        (xv, yv), den = _exponent_vector([x, y], e)
        assert den == 1
        prod = [(a + b, u * w) for a, u in xv for b, w in yv]
        assert _from_vector(prod, 1, e).coeffs == (x * y).coeffs


# ---------------------------------------------------------------------------
# Ring axioms at mixed conductors, as properties of the reference field against
# the integer kernel, and the package's equality against the reference's
# coefficients at a common conductor.

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@st.composite
def cyclotomics(draw) -> Cyc:
    e = draw(st.sampled_from(CONDUCTORS))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return Cyc(e, draw(st.lists(coeff, min_size=euler_phi(e), max_size=euler_phi(e))))


@settings(max_examples=80)
@given(cyclotomics(), cyclotomics(), cyclotomics())
@example(Cyc.zeta(6), -Cyc.zeta(3, 2), Cyc.zeta(4))  # zeta_6 = -zeta_3^2
@example(Cyc.of(-1), Cyc.of(-1, 3), Cyc.of(Fraction(1, 2)))  # -1 at conductors 1 and 3
@example(Cyc.zeta(3), Cyc.zeta(6, 2).conjugate(), Cyc.of(0))  # zeta_3 != zeta_3^2
def test_ring_axioms_at_mixed_conductors_against_the_integer_kernel(x, y, z):
    e = math.lcm(x.conductor, y.conductor)
    (xv, yv), den = _exponent_vector([x, y], e)
    # the kernel: sums join exponent vectors, products add exponents, one reduction
    assert (x + y).conductor == (x * y).conductor == e
    assert (x + y).coeffs == _from_vector(xv + yv, den, e).coeffs
    assert (x * y).coeffs == _from_vector(
        [(a + b, u * w) for a, u in xv for b, w in yv], den * den, e).coeffs
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x - y == x + (-y) and x - x == 0
    # the package's equality: the same coefficients at the lcm, either way
    # round; a promoted value equals itself; a rational operand equals a
    # rational value with that constant term; any other operand decides
    same = x.at(e).coeffs == y.at(e).coeffs
    assert (x == y) is (y == x) is same and (x != y) is not same
    assert x.at(e) == x and y == y.at(e)
    q = x.coeffs[0]
    assert (x == q) is (q == x) is x.is_rational() and x != q + 1
    assert (x == 0) is (0 == x) is x.is_zero() and (x == "0") is False and x == ANY


@settings(max_examples=80)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_a_ring_automorphism(x, y):
    (xv,), den = _exponent_vector([x], x.conductor)
    assert x.conjugate().coeffs == _from_vector([(-k, c) for k, c in xv], den, x.conductor).coeffs
    assert x.conjugate().conductor == x.conductor
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    assert Cyc.of(1).conjugate() == 1


@settings(max_examples=80)
@given(cyclotomics(), st.integers(1, 4), st.integers(1, 3))
def test_promotion_then_reduction_loses_nothing(x, f, g):
    e = x.conductor * f
    up = x.at(e)
    # promotion scales the exponents by f, then reduces once modulo Phi_e
    (xv,), den = _exponent_vector([x], e)
    assert up.conductor == e and up.coeffs == _from_vector(xv, den, e).coeffs
    assert up == x and abs(_numeric(up) - _numeric(x)) < 1e-9
    # Phi_e is monic and integral, so the reduction brings in no denominator
    assert all(den % c.denominator == 0 for c in up.coeffs)
    # promoting in two steps is promoting at once, and arithmetic commutes with it
    assert up.at(e * g).coeffs == x.at(e * g).coeffs
    assert (x * x).at(e).coeffs == (up * up).coeffs
