"""The generating-function pipeline: exact series coefficients as pairs
(re, im) of Fractions, and the pair arithmetic and truncated-series
helpers it is built from.

The derivative values that feed the closed-form sums are frozen here after
verification against an independent symbolic-differentiation oracle
(sympy), which is also run directly for small orders.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum.series import (
    DEFAULT_ORDER,
    _dot,
    _exp_it,
    _product,
    _reciprocal,
    derivative_at_zero,
    generating_function_series,
)

ZERO = (Fraction(0), Fraction(0))
UNIT_I = (Fraction(0), Fraction(1))


def real(x) -> tuple:
    return (Fraction(x), Fraction(0))


def pair(re, im=0) -> tuple:
    return (Fraction(re), Fraction(im))


def series(*values) -> list:
    return [pair(*v) if isinstance(v, tuple) else pair(v) for v in values]


def mul(a, b) -> tuple:
    return _dot([a], [b])


def add(a, b) -> tuple:
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1])


rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=20
)
pairs = st.tuples(rationals, rationals)
small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
small_pairs = st.tuples(small_rationals, small_rationals)


def series_of(n):
    return st.lists(small_pairs, min_size=n, max_size=n)


# _reciprocal's contract: the constant term is real and nonzero
invertible_series = st.tuples(
    small_rationals.filter(bool), st.lists(small_pairs, min_size=0, max_size=4)
).map(lambda t: [(t[0], Fraction(0)), *t[1]])


class TestPairArithmetic:
    def test_identity_product(self):
        assert mul(pair(1), UNIT_I) == UNIT_I

    def test_i_squared(self):
        assert mul(UNIT_I, UNIT_I) == pair(-1)

    def test_dot_sums_the_products(self):
        assert _dot(series(1, (0, 1)), series((2, 1), (0, 1))) == pair(1, 1)

    @settings(max_examples=60, deadline=None)
    @given(pairs, pairs, pairs)
    def test_associativity_and_distributivity(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, sub(b, c)) == sub(mul(a, b), mul(a, c))

    @settings(max_examples=60, deadline=None)
    @given(pairs, pairs)
    def test_commutativity(self, a, b):
        assert mul(a, b) == mul(b, a)


class TestBasicOps:
    def test_exp_it_order_zero(self):
        assert _exp_it(0) == [pair(1)]

    def test_exp_it_order_two(self):
        assert _exp_it(2) == [pair(1), UNIT_I, pair(Fraction(-1, 2))]

    def test_exp_it_cubic_coefficient(self):
        # i^3 / 3! = -i/6
        assert _exp_it(3)[3] == pair(0, Fraction(-1, 6))

    @pytest.mark.parametrize("j, expected", [
        (0, pair(1)), (1, UNIT_I), (2, pair(-1)), (3, pair(0, -1)), (4, pair(1)),
        (101, UNIT_I)])
    def test_exp_it_i_power_cycle(self, j, expected):
        # j! times the coefficient at t^j is i^j
        re, im = _exp_it(j)[j]
        assert (re * math.factorial(j), im * math.factorial(j)) == expected

    def test_reciprocal_geometric(self):
        assert _reciprocal(series(1, 1, 0, 0)) == series(1, -1, 1, -1)

    def test_reciprocal_needs_nonzero_constant(self):
        with pytest.raises(ZeroDivisionError):
            _reciprocal(series(0, 1))

    def test_mul(self):
        assert _product(series(1, 1), series(1, -1)) == series(1, 0)
        assert _product(series(1, 1, 0), series(1, -1, 0)) == series(1, 0, -1)
        assert _product(series(1, (0, 1)), series(1, (0, 1))) == series(1, (0, 2))


class TestRingProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(series_of(n), series_of(n), series_of(n))))
    def test_mul_associative_up_to_truncation(self, abc):
        a, b, c = abc
        assert _product(_product(a, b), c) == _product(a, _product(b, c))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(series_of(n), series_of(n))))
    def test_mul_commutative(self, ab):
        a, b = ab
        assert _product(a, b) == _product(b, a)

    @settings(max_examples=40, deadline=None)
    @given(invertible_series)
    def test_mul_by_reciprocal_is_one(self, s):
        one = [pair(1)] + [ZERO] * (len(s) - 1)
        assert _product(s, _reciprocal(s)) == one


class TestGeneratingFunction:
    def test_headline_coefficients(self):
        f = generating_function_series(8)
        assert f[0] == real(Fraction(1, 4))
        assert f[1] == ZERO
        assert f[2] == real(Fraction(1, 16))

    def test_each_order_builds_once(self):
        # the cache keys on the checked order, not on how the call spells it
        generating_function_series.cache_clear()
        try:
            series = {generating_function_series(),
                      generating_function_series(64),
                      generating_function_series(order=64),
                      generating_function_series(64.0)}
            info = generating_function_series.cache_info()
        finally:
            generating_function_series.cache_clear()
        assert len(series) == 1
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)

    def test_coefficients_are_fraction_pairs(self):
        f = generating_function_series()
        assert len(f) == DEFAULT_ORDER + 1
        assert all(type(x) is Fraction for pair in f for x in pair)

    def test_derivatives_at_zero(self):
        f = generating_function_series(12)
        assert derivative_at_zero(f, 0) == real(Fraction(1, 4))
        assert derivative_at_zero(f, 1) == ZERO
        assert derivative_at_zero(f, 2) == real(Fraction(1, 8))

    def test_against_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        expr = sympy.exp(sympy.I * t) / (1 + sympy.exp(sympy.I * t)) ** 2
        f = generating_function_series(10)
        for k in range(11):
            expected = sympy.nsimplify(
                sympy.simplify(sympy.expand_complex(sympy.diff(expr, t, k).subs(t, 0)))
            )
            re, im = derivative_at_zero(f, k)
            assert sympy.Rational(re.numerator, re.denominator) == expected
            assert im == 0

    def test_odd_derivatives_vanish(self):
        # even function of t: every odd derivative at 0 is exactly zero
        f = generating_function_series(31)
        for k in range(2, 31, 2):
            assert derivative_at_zero(f, k - 1) == ZERO

    def test_truncation_stability(self):
        small = generating_function_series(6)
        for n in (6, 9, 17, 40):
            big = generating_function_series(n)
            for k in range(7):
                assert derivative_at_zero(big, k) == derivative_at_zero(small, k)

    def test_order_exceeded_raises(self):
        f = generating_function_series(4)
        with pytest.raises(ValueError, match="derivative order 5 exceeds series order 4"):
            derivative_at_zero(f, 5)

    @pytest.mark.parametrize("order, message", [
        (-1, "order must be >= 0"), (2.5, "order must be an integer")])
    def test_bad_order_raises(self, order, message):
        with pytest.raises(ValueError, match=message):
            generating_function_series(order)

    def test_negative_derivative_order_raises(self):
        with pytest.raises(ValueError, match="derivative order must be >= 0"):
            derivative_at_zero(generating_function_series(4), -1)
