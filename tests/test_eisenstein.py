"""Exact arithmetic in Q(rho)."""

import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballq.eisenstein import ONE, RHO, RHO2, ZERO, EisensteinNumber, eis

from conftest import (pair_add, pair_conjugate, pair_inverse, pair_mul, pair_norm, pair_of,
                      pair_str, pair_sub)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
numbers = st.builds(EisensteinNumber, rationals, rationals)
pairs = st.tuples(rationals, rationals)
scalars = st.one_of(st.integers(min_value=-9, max_value=9), rationals)


def test_rho_squared():
    assert RHO * RHO == eis(-1, -1)


def test_rho_cubed_is_one():
    assert RHO * RHO * RHO == ONE


def test_one_minus_rho_squared():
    x = ONE - RHO
    assert x * x == eis(0, -3)


def test_inverse_of_one():
    assert ONE / ONE == ONE


def test_inverse_of_rho():
    assert ONE / RHO == RHO2
    assert ONE / RHO == eis(-1, -1)


def test_inverse_of_one_minus_rho():
    assert ONE / (ONE - RHO) == eis(Fraction(2, 3), Fraction(1, 3))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_norm_values():
    assert pair_norm(pair_of(ZERO)) == 0
    assert pair_norm(pair_of(RHO)) == 1
    assert pair_norm(pair_of(ONE - RHO)) == 3


def test_division():
    assert (ONE - RHO) / (ONE - RHO) == ONE
    assert eis(0, 2) / eis(0, 1) == eis(2)


def test_pow():
    assert RHO ** 0 == ONE
    assert RHO ** 2 == RHO2
    assert RHO ** 3 == ONE
    # Negative powers are not defined: x ** -1 must not pass for x.
    with pytest.raises(TypeError):
        RHO ** -1


def test_scalar_mixing():
    assert 2 * RHO == eis(0, 2)
    assert Fraction(1, 3) * (ONE - RHO) == eis(Fraction(1, 3), Fraction(-1, 3))
    assert (ONE - RHO) / 3 == eis(Fraction(1, 3), Fraction(-1, 3))
    assert 1 + RHO == eis(1, 1)


def test_string_forms():
    assert str(eis(Fraction(2, 3))) == "2/3"
    assert str(eis(Fraction(2, 3), Fraction(1, 3))) == "2/3+1/3ρ"
    assert str(eis(Fraction(-1, 3), Fraction(2, 3))) == "-1/3+2/3ρ"
    assert str(eis(0, -1)) == "-1ρ"
    assert str(ZERO) == "0"


def test_parse_ascii_and_unicode():
    assert EisensteinNumber.from_string("-1/3+2/3r") == eis(Fraction(-1, 3), Fraction(2, 3))
    assert EisensteinNumber.from_string("2/3") == eis(Fraction(2, 3))
    assert EisensteinNumber.from_string("r") == RHO
    assert EisensteinNumber.from_string("-r") == eis(0, -1)
    assert EisensteinNumber.from_string("1-1ρ") == eis(1, -1)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1//2", "2/3+", "rr", "1e5", "2e3r", "1/0", "1/0r", "rho"):
        with pytest.raises(ValueError, match=re.escape(f"malformed Eisenstein literal: {bad!r}")):
            EisensteinNumber.from_string(bad)


@given(numbers)
def test_string_round_trip(x):
    assert EisensteinNumber.from_string(str(x)) == x


@given(numbers, numbers, numbers)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (ZERO - x) == ZERO


@given(numbers)
def test_inverse_property(x):
    if x:
        assert x * (ONE / x) == ONE


@given(numbers, numbers)
def test_norm_multiplicative(x, y):
    assert pair_norm(pair_of(x * y)) == pair_norm(pair_of(x)) * pair_norm(pair_of(y))


@given(numbers)
def test_norm_nonnegative(x):
    n = pair_norm(pair_of(x))
    assert n >= 0
    assert (n == 0) == (not x)


@given(numbers)
def test_conjugate_gives_norm(x):
    assert x * eis(*pair_conjugate(pair_of(x))) == EisensteinNumber(pair_norm(pair_of(x)))


@given(numbers)
def test_canonical_form_is_stable(x):
    # Rebuilding from the stored coefficients is a no-op: Fraction keeps
    # gcd(num, den) == 1 and den > 0 by construction.
    rebuilt = EisensteinNumber(Fraction(x.re_part.numerator, x.re_part.denominator),
                               Fraction(x.rho_part.numerator, x.rho_part.denominator))
    assert rebuilt == x
    assert x.re_part.denominator > 0 and x.rho_part.denominator > 0


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        eis(0.5)
    with pytest.raises(TypeError):
        EisensteinNumber(ONE, 0.0)


def assert_canonical(x):
    a, b, d = x.triple
    assert d > 0 and gcd(a, b, d) == 1
    assert pair_of(x) == (Fraction(a, d), Fraction(b, d))


@given(pairs, pairs)
def test_triple_arithmetic_matches_fraction_pairs(p, q):
    x, y = eis(*p), eis(*q)
    assert pair_of(x) == p
    results = [(x + y, pair_add(p, q)), (x - y, pair_sub(p, q)), (x * y, pair_mul(p, q)),
               (x * eis(*pair_conjugate(p)), (pair_norm(p), 0))]
    if any(q):
        results.append((x / y, pair_mul(p, pair_inverse(q))))
    for z, expected in results:
        assert_canonical(z)
        assert pair_of(z) == expected
    assert str(x) == pair_str(p)
    assert EisensteinNumber.from_string(str(x)).triple == x.triple
    assert (x == y) == (p == q)
    if p == q:
        assert hash(x) == hash(y)


@given(pairs, scalars)
def test_triple_arithmetic_with_scalars_matches_fraction_pairs(p, c):
    x, s = eis(*p), (Fraction(c), Fraction(0))
    results = [(x + c, pair_add(p, s)), (c + x, pair_add(p, s)), (x - c, pair_sub(p, s)),
               (x * c, pair_mul(p, s)), (c * x, pair_mul(p, s))]
    if c:
        results.append((x / c, pair_mul(p, pair_inverse(s))))
    for z, expected in results:
        assert_canonical(z)
        assert pair_of(z) == expected


@given(st.integers(min_value=-60, max_value=60), st.integers(min_value=-60, max_value=60),
       st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12))
def test_equal_values_have_equal_triples(a, b, d, k):
    x = EisensteinNumber.from_triple(a, b, d)
    assert_canonical(x)
    assert EisensteinNumber.from_triple(k * a, k * b, k * d).triple == x.triple
    assert eis(Fraction(a, d), Fraction(b, d)).triple == x.triple
    assert EisensteinNumber(x) is x


def test_equality_is_class_strict_and_repr_keeps_its_text():
    assert (eis(1) == 1) is False and eis(1) != Fraction(1)
    assert repr(eis(Fraction(1, 2), 3)) == (
        "EisensteinNumber(re_part=Fraction(1, 2), rho_part=Fraction(3, 1))")


def test_numbers_are_immutable_and_pickle():
    x = eis(Fraction(-2, 3), Fraction(5, 6))
    with pytest.raises(AttributeError):
        x.triple = (1, 0, 1)
    assert pickle.loads(pickle.dumps(x)) == x
