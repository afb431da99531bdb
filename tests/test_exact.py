"""Exact rational and Gaussian-rational arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum.series import GaussianRational, i_pow

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=20
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


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
