"""Exact Gaussian-rational arithmetic, truncated power series, and the
generating-function pipeline.

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
    GaussianRational,
    TaylorSeries,
    constant_series,
    derivative_at_zero,
    generating_function_series,
    i_pow,
    series_exp_it,
)


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def ts(*values) -> TaylorSeries:
    return TaylorSeries(tuple(gr(*v) if isinstance(v, tuple) else gr(v) for v in values))


rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=20
)
gaussians = st.builds(GaussianRational, rationals, rationals)
small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
small_gaussians = st.builds(GaussianRational, small_rationals, small_rationals)
small_series = st.lists(small_gaussians, min_size=1, max_size=5).map(
    lambda cs: TaylorSeries(tuple(cs))
)


class TestGaussianRational:
    def test_identity_product(self):
        assert gr(1) * gr(0, 1) == gr(0, 1)

    def test_i_squared(self):
        assert gr(0, 1) * gr(0, 1) == gr(-1)

    def test_quarter_divided_by_minus_three(self):
        got = gr(Fraction(1, 4)) / gr(-3)
        assert got == gr(Fraction(-1, 12))
        assert got.re == Fraction(-1, 12)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1, 1) / gr(0, 0)

    def test_mixed_int_and_fraction_operands(self):
        assert gr(1, 2) * 3 == gr(3, 6)
        assert 1 - gr(0, 1) == gr(1, -1)
        assert gr(1) / 4 == gr(Fraction(1, 4))


class TestIPow:
    @pytest.mark.parametrize(
        "k,expected",
        [(0, gr(1)), (1, gr(0, 1)), (2, gr(-1)), (3, gr(0, -1)), (-1, gr(0, -1)),
         (4, gr(1)), (-2, gr(-1)), (101, gr(0, 1))],
    )
    def test_cycle(self, k, expected):
        assert i_pow(k) == expected

    def test_inverse_pairs(self):
        for k in range(-100, 101):
            assert i_pow(k) * i_pow(-k) == gr(1)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(gaussians, gaussians, gaussians)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # subtraction inverts addition and distributes too
        assert (a - b) + b == a
        assert a * (b - c) == a * b - a * c

    @settings(max_examples=60, deadline=None)
    @given(gaussians, gaussians)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(gaussians)
    def test_multiplicative_inverse(self, a):
        if not a.is_zero():
            assert a * (gr(1) / a) == gr(1)

    @settings(max_examples=60, deadline=None)
    @given(rationals, rationals)
    def test_reduction_invariant(self, a, b):
        # Fraction keeps lowest terms with positive denominator after every op
        for value in (a + b, a * b, a - b):
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value.denominator > 0


class TestBasicOps:
    def test_exp_it_order_zero(self):
        assert series_exp_it(0).coeffs == (gr(1),)

    def test_exp_it_order_two(self):
        assert series_exp_it(2).coeffs == (gr(1), gr(0, 1), gr(Fraction(-1, 2)))

    def test_exp_it_cubic_coefficient(self):
        # i^3 / 3! = -i/6
        assert series_exp_it(3).coeffs[3] == gr(0, Fraction(-1, 6))

    def test_reciprocal_geometric(self):
        s = ts(1, 1, 0, 0)
        assert s.reciprocal().coeffs == (gr(1), gr(-1), gr(1), gr(-1))

    def test_reciprocal_needs_nonzero_constant(self):
        with pytest.raises(ZeroDivisionError):
            ts(0, 1).reciprocal()

    def test_mul(self):
        assert (ts(1, 1) * ts(1, -1)).coeffs == (gr(1), gr(0))
        assert (ts(1, 1, 0) * ts(1, -1, 0)).coeffs == (gr(1), gr(0), gr(-1))

    def test_binary_ops_truncate_to_smaller_order(self):
        a, b = ts(1, 2, 3), ts(1, 1)
        assert (a + b).order == 1
        assert (a * b).order == 1


class TestGeneratingFunction:
    def test_headline_coefficients(self):
        f = generating_function_series(8)
        assert f.coeffs[0] == gr(Fraction(1, 4))
        assert f.coeffs[1] == gr(0)
        assert f.coeffs[2] == gr(Fraction(1, 16))

    def test_derivatives_at_zero(self):
        f = generating_function_series(12)
        assert derivative_at_zero(f, 0) == gr(Fraction(1, 4))
        assert derivative_at_zero(f, 1) == gr(0)
        assert derivative_at_zero(f, 2) == gr(Fraction(1, 8))

    def test_against_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        expr = sympy.exp(sympy.I * t) / (1 + sympy.exp(sympy.I * t)) ** 2
        f = generating_function_series(10)
        for k in range(11):
            expected = sympy.nsimplify(
                sympy.simplify(sympy.expand_complex(sympy.diff(expr, t, k).subs(t, 0)))
            )
            got = derivative_at_zero(f, k)
            assert sympy.Rational(got.re.numerator, got.re.denominator) == expected
            assert got.im == 0

    def test_odd_derivatives_vanish(self):
        # even function of t: every odd derivative at 0 is exactly zero
        f = generating_function_series(31)
        for k in range(2, 31, 2):
            assert derivative_at_zero(f, k - 1) == gr(0)

    def test_truncation_stability(self):
        small = generating_function_series(6)
        for n in (6, 9, 17, 40):
            big = generating_function_series(n)
            for k in range(7):
                assert derivative_at_zero(big, k) == derivative_at_zero(small, k)

    def test_order_exceeded_raises(self):
        f = generating_function_series(4)
        with pytest.raises(ValueError, match="exceeds"):
            derivative_at_zero(f, 5)


class TestRingProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series, small_series)
    def test_mul_associative_up_to_truncation(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(small_series)
    def test_mul_by_reciprocal_is_one(self, s):
        if not s.coeffs[0].is_zero():
            one = constant_series(1, s.order)
            assert s * s.reciprocal() == one
