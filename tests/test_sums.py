"""Closed-form regularized sums against the Bernoulli/zeta oracles."""

import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from divsum import sums
from divsum.series import derivative_at_zero, generating_function_series, i_pow
from divsum.sums import (
    SumKind,
    alternating_sum_powers,
    bernoulli_numbers,
    functional_equation_residual,
    sum_powers,
    zeta_negative_oracle,
    zeta_partial_sum,
)
from oracles import (
    derivative_dilation_commutation_check,
    ramanujan_identity_check,
    zeta_partial_sum_two_arrays,
)


class TestSumPowers:
    @pytest.mark.parametrize(
        "k,expected",
        [(1, Fraction(-1, 12)), (2, Fraction(0)), (3, Fraction(1, 120)),
         (5, Fraction(-1, 252))],
    )
    def test_values(self, k, expected):
        r = sum_powers(k)
        assert r.value == expected
        assert r.kind is SumKind.POWERS_ALL_PLUS

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            sum_powers(0)
        with pytest.raises(ValueError):
            sum_powers(201)

    def test_json_shape(self):
        assert sum_powers(3).to_json_obj() == {
            "k": 3,
            "kind": "powers_all_plus",
            "value": "1/120",
            "method": "closed_form",
        }

    def test_immutable_record(self):
        r = sum_powers(1)
        assert repr(r) == ("RegularizedSum(value=Fraction(-1, 12), k=1, "
                           "kind=<SumKind.POWERS_ALL_PLUS: 'powers_all_plus'>)")
        assert r == sum_powers(1) and hash(r) == hash(sum_powers(1))
        with pytest.raises(AttributeError):
            r.value = Fraction(0)

    def test_large_k_exact_order(self):
        # beyond the default order of the series oracle
        assert sum_powers(80).value == zeta_negative_oracle(80)


class TestAlternatingSumPowers:
    @pytest.mark.parametrize(
        "k,expected",
        [(1, Fraction(1, 4)), (2, Fraction(0)), (3, Fraction(-1, 8))],
    )
    def test_values(self, k, expected):
        assert alternating_sum_powers(k).value == expected

    def test_eta_relation_through_bernoulli_oracle(self):
        # eta(-k) = (1 - 2^{k+1}) zeta(-k), with zeta from the recurrence
        for k in range(1, 31):
            assert alternating_sum_powers(k).value == (
                1 - 2 ** (k + 1)
            ) * zeta_negative_oracle(k)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            alternating_sum_powers(0)
        with pytest.raises(ValueError):
            alternating_sum_powers(10**6)


def fraction_bernoulli(n: int) -> tuple:
    """B_0..B_n by the same recurrence in Fraction arithmetic."""
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * vals[j]
        vals.append(-s / (m + 1))
    return tuple(vals)


class TestBernoulli:
    def test_integer_recurrence_matches_fraction_recurrence(self):
        # 261 is the table behind zeta_negative_oracle(260)
        oracle = fraction_bernoulli(261)
        for n in (0, 1, 2, 3, 4, 5, 30, 261):
            assert bernoulli_numbers(n) == oracle[: n + 1]

    @pytest.mark.parametrize("n", [262, 1200, 10**9])
    def test_table_past_zeta_minus_260_rejected_at_once(self, n):
        # unbounded, n = 1200 took seconds and the cost grows like n^3.5
        start = time.perf_counter()
        with pytest.raises(ValueError, match="n must be <= 261"):
            bernoulli_numbers(n)
        assert time.perf_counter() - start < 0.02

    def test_base_values(self):
        table = bernoulli_numbers(12)
        assert table[0] == 1
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[4] == Fraction(-1, 30)
        assert table[12] == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        table = bernoulli_numbers(33)
        for n in range(3, 34, 2):
            assert table[n] == 0

    def test_zeta_12_partial_sum_consistency(self):
        # zeta(12) = B_12-free check of the table via |B_12| (2pi)^12 / (2*12!)
        table = bernoulli_numbers(12)
        closed = float(abs(table[12])) * (2 * math.pi) ** 12 / (2 * math.factorial(12))
        assert abs(closed - zeta_partial_sum(12.0, 4000)) < 1e-12


class TestZetaOracle:
    @pytest.mark.parametrize(
        "k,expected",
        [(1, Fraction(-1, 12)), (2, Fraction(0)), (3, Fraction(1, 120))],
    )
    def test_values(self, k, expected):
        assert zeta_negative_oracle(k) == expected

    def test_oracle_equivalence_up_to_30(self):
        for k in range(1, 31):
            assert sum_powers(k).value == zeta_negative_oracle(k)
            if k % 2 == 0:
                assert sum_powers(k).value == 0


class TestFunctionalEquation:
    def test_k1_full_terms(self):
        assert functional_equation_residual(1, 10**6) < 1e-10

    def test_k2_sine_vanishes(self):
        assert functional_equation_residual(2, 1000) < 1e-12

    def test_k3_small_terms(self):
        assert functional_equation_residual(3, 10**4) < 1e-10

    def test_zeta4_cross_check(self):
        assert abs(zeta_partial_sum(4.0, 10**4) - math.pi**4 / 90) < 1e-12

    def test_odd_k_spot(self):
        assert functional_equation_residual(7, 10**5) < 1e-8

    @pytest.mark.parametrize("k", [259, 260])
    def test_relative_residual_at_float_range_edge(self, k):
        assert functional_equation_residual(k) < 1e-8

    @pytest.mark.parametrize("k", [29, 171, 259])
    def test_perturbed_oracle_fails(self, monkeypatch, k):
        exact = sums.zeta_negative_oracle
        monkeypatch.setattr(sums, "zeta_negative_oracle",
                            lambda j: exact(j) * Fraction(10**7 + 1, 10**7))
        assert functional_equation_residual(k) > 1e-8

    def test_k_beyond_float_range_rejected_before_bernoulli(self, monkeypatch):
        def forbidden(n):
            raise AssertionError("Bernoulli table built for a rejected k")

        monkeypatch.setattr(sums, "bernoulli_numbers", forbidden)
        for k in (261, 100000):
            with pytest.raises(ValueError):
                functional_equation_residual(k)


class TestZetaPartialSum:
    def test_terms_bound(self):
        with pytest.raises(ValueError, match="terms"):
            zeta_partial_sum(2.0, sums._MAX_TERMS + 1)

    @pytest.mark.parametrize("s", [1.0, 0.5, -math.inf, math.nan])
    def test_exponent_must_exceed_one(self, s):
        message = "s must be > 1" if math.isfinite(s) else "s must be finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            zeta_partial_sum(s, 100)

    # the skipped parts of the tree and the numpy-free sum at s >= 54, where
    # the terms past n = 1 cannot move 1.0, reach subnormal powers from
    # s = 52 on and both sides of the threshold
    SKIP_EXPONENTS = (6, 46, 52, 53, 54, 56, 102, 200, 261)
    # either side of the 128-term block, the 8-way unroll and the 2^16-term
    # leaf, the CLI's default of 10**6, and past 2^20 terms; the two largest
    # counts, where the reference's two arrays dominate the time, take the
    # unpruned, pruned, subnormal and numpy-free exponents only
    SUM_GRID = [(s, terms) for s in sorted({2, 3, 4, 10, 13, 201, *SKIP_EXPONENTS})
                for terms in (10, 127, 129, 65537, 100003, 10**6, 2**20, 2**20 + 7)]
    SUM_GRID += [(s, terms) for terms in (3 * 10**6, 4 * 2**20 + 3)
                 for s in (2, 3, 10, 52, 54)]

    @pytest.mark.parametrize("s,terms", SUM_GRID)
    def test_in_place_powers_match_two_arrays(self, s, terms):
        # the pieces of numpy's pairwise tree add up to one np.sum over all
        # the terms, bit for bit, with one leaf buffer at a time
        expected = zeta_partial_sum_two_arrays(s, terms)
        tracemalloc.start()
        try:
            got = zeta_partial_sum(s, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == expected.hex()
        assert peak < 1.5 * 8 * sums._SUM_LEAF, peak


class TestRamanujanIdentity:
    def test_small_orders(self):
        assert ramanujan_identity_check(2)
        assert ramanujan_identity_check(6)

    def test_order_1000(self):
        assert ramanujan_identity_check(1000)


class TestDilationCommutation:
    @pytest.mark.parametrize("k,lam,order", [(1, 2, 10), (0, 2, 10), (3, 2, 20),
                                             (2, 3, 15), (5, 2, 50)])
    def test_holds(self, k, lam, order):
        assert derivative_dilation_commutation_check(k, lam, order)


class TestRouteAgreement:
    def test_series_oracle_matches_tangent_route(self):
        # the paper's Gaussian-rational series, on both sides of DEFAULT_ORDER
        s = generating_function_series(70)
        for k in range(1, 71):
            g = derivative_at_zero(s, k - 1) / i_pow(k - 1)
            assert g.is_real()
            assert g.re == alternating_sum_powers(k).value

    def test_bernoulli_oracle_up_to_200(self):
        table = bernoulli_numbers(201)
        for k in range(1, 201):
            assert sum_powers(k).value == -table[k + 1] / (k + 1)
