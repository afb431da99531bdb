"""Pairings with the singular kernels, combs and their limit processes."""

import cmath
import json
import math
import random
import re
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum import cli
from divsum.coefficients import (
    _coefficient_ladder,
    dirichlet_comb_growth,
    dirichlet_comb_ladder,
    fourier_coefficient_numeric,
)
from divsum.distributions import (
    _remainder_cell_action,
    _support,
    all_plus_series_action,
    alternating_kernel,
    alternating_series_action,
    centered_kernel,
    finite_part_action,
    finite_part_action_epsilon,
    jump_average,
    mollified_limit,
)
from divsum.extrapolation import (
    DEFAULT_EPS_LEVELS,
    EPS_TOP,
    MAX_LEVELS,
    EpsilonLimit,
    richardson_extrapolate,
)
from divsum.mollifiers import Mollifier, bump_moment, mollifier
from divsum.mollifiers import TestFunction as SmoothTF
from divsum.panels import VANISHING_ORDERS
from divsum.quadrature import _panel_values as panel_values
from divsum.quadrature import TOLERANCE, QuadratureError, integrate
from divsum.sums import alternating_sum_powers, sum_powers
from oracles import (
    _COMB_XI_MAX,
    EDGE_POLE_BUMPS,
    JUMPS,
    NEAR_POLE_BUMPS,
    REMAINDER_BUMPS,
    SPANNING_BUMPS,
    BumpSecondDerivative,
    all_plus_scale_sample,
    alternating_scale_sample,
    bump_moments,
    comb_spectral_pairing,
    cos_scale_sample,
    fourier_coefficient_plain,
    fourier_coefficient_quadrature,
    homothety_pairing_check,
    jump_pairing,
)

PI = math.pi
_EDGE = {1: "left-edge", -1: "right-edge"}  # where the pole lies, by side


def zero_tf(lo=1.0, hi=2.0) -> SmoothTF:
    z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return SmoothTF(SimpleNamespace(value=z, deriv=z, deriv2=z, support=(lo, hi)))


def slope_bump_at(center: float, half_width: float) -> SmoothTF:
    """(t - center) * bump((t - center)/w): value 0, derivative psi(0) at center.

    That is w f((t - center)/w) for the base f(x) = x bump(x)."""
    bump = mollifier(0, 1)
    slope = SimpleNamespace(
        value=lambda x: x * bump(x),
        deriv=lambda x: bump(x) + x * bump.deriv(x),
        deriv2=lambda x: 2.0 * bump.deriv(x) + x * bump.deriv2(x),
        support=bump.support,
    )
    return SmoothTF(slope, 1.0 / half_width, center, half_width)


class TestKernels:
    def test_quarter_at_origin(self):
        assert alternating_kernel(np.array([0.0]))[0] == 0.25

    def test_centered_matches_shifted(self):
        x = np.linspace(0.3, 2.8, 37)
        assert np.allclose(centered_kernel(x), alternating_kernel(PI + x),
                           rtol=1e-12)


class TestFinitePartAction:
    def test_zero_function(self):
        assert finite_part_action(zero_tf()) == 0j

    def test_support_violation(self):
        with pytest.raises(ValueError, match="support"):
            finite_part_action(mollifier(0, 1))  # support (-1, 1) leaves (0, 2pi)

    def test_away_from_pole_equals_plain_quadrature(self):
        tf = mollifier(0, 3).shifted(2.0)  # support (5/3, 7/3), pole-free
        plain = integrate(lambda t: tf(t) * alternating_kernel(t), *tf.support)
        assert abs(finite_part_action(tf) - plain) < 1e-10

    def test_matches_epsilon_route_at_pole(self):
        # the p = 4 bumps centred just off pi have phi''(pi) near 0, so the
        # leading eps term nearly vanishes; the ladder must still eliminate
        # the odd powers eps, eps^3, ... in order
        near_centre = [mollifier(4, 1).dilated(1.0 / hw).shifted(PI + off)
                       for hw, off in ((0.3, 6e-4), (0.3, 8e-4), (0.3, 1.5e-3),
                                       (0.35, 1.5e-3), (1.0, 1e-3))]
        # narrow bumps across or just past the pole, where the remainder
        # route grades its panels toward the log singularity
        narrow = [mollifier(p, 1).dilated(lam).shifted(PI + off)
                  for p, lam, off in ((4, 200.0, 0.0), (2, 50.0, 0.018),
                                      (0, 100.0, 0.002), (2, 1000.0, 3e-4))]
        for tf in [mollifier(0, 1).shifted(PI)] + near_centre + narrow:
            a = finite_part_action(tf)
            b = finite_part_action_epsilon(tf)
            assert b.converged
            assert abs(a - b.extrapolated) < 1e-8

    def test_odd_about_pole_vanishes(self):
        # (t-pi) * bump is odd about pi; kernel is even about pi
        tf = slope_bump_at(PI, 0.8)
        assert abs(finite_part_action(tf)) < 1e-10

    def test_narrow_bump_across_pole_is_bounded(self):
        # half-width 0.02 across the pole: one adaptive quadrature over the
        # support, graded toward the pole, so allocation stays small
        tf = mollifier(2, 1).dilated(50.0).shifted(PI + 0.018)
        # 30 digits of remainder_truth(2, 50.0, PI + 0.018, PI)
        truth = 621.090397156368642606145971971
        tracemalloc.start()
        try:
            value = finite_part_action(tf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value - truth) < 1e-9
        assert peak < 1 << 30

    def test_phi2_past_the_float_range_is_a_numerical_failure(self):
        # amp * lam^2 * phi'' overflows on the probe: the input is valid, so
        # the outcome is a typed numerical error, not a ValueError about the
        # route's internal tolerance, and no overflow warning
        tf = mollifier(4, 1).dilated(3268.76).shifted(3.14157).scaled(1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="float range"):
                finite_part_action(tf)


def remainder_truth(p: int, lam: float, centre: float, pole: float):
    """Finite-part pairing of mollifier(p, 1).dilated(lam).shifted(centre)
    over the period cell centred at pole, to 30 digits.

    Uses the Fubini-swapped form: integral over (-pi, pi) of
    -log|sin(u/2)| phi''(pole + u) du.  Integrating it by parts twice gives
    back the counterterm definition; both boundary terms vanish at +-pi,
    where cot(u/2) = 0 and log|sin(u/2)| = 0, so phi need not vanish at the
    cell edges.  phi'' is written out for t^p exp(-1/(1 - t^2)).

    The library's remainder route evaluates this same formula, so this
    oracle checks its arithmetic only; the counterterm route
    (test_matches_epsilon_route_at_pole) is the independent check of the
    formula itself.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lam, centre, pole = (mpmath.mpf(v) for v in (lam, centre, pole))
        norm = mpmath.quad(lambda s: s**p * mpmath.exp(-1 / (1 - s * s)),
                           [-1, 0, 1])

        def d2(t):
            s = lam * (t - centre)
            if abs(s) >= 1:
                return mpmath.mpf(0)
            u = 1 - s * s
            h1 = -2 * s / u**2
            h2 = -2 / u**2 - 8 * s * s / u**3
            g = s**p * (h1 * h1 + h2)
            if p >= 1:
                g += 2 * p * s ** (p - 1) * h1
            if p >= 2:
                g += p * (p - 1) * s ** (p - 2)
            return lam * lam * mpmath.exp(-1 / u) * g / norm

        lo = max(centre - 1 / lam - pole, -mpmath.pi)
        hi = min(centre + 1 / lam - pole, mpmath.pi)
        cuts = sorted({lo, hi} | ({mpmath.mpf(0)} if lo < 0 < hi else set()))
        total = mpmath.mpf(0)
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += mpmath.quad(
                lambda u: -mpmath.log(abs(mpmath.sin(u / 2))) * d2(pole + u),
                mpmath.linspace(a, b, 9))
        return total


class TestRemainderRouteAgainstMpmath:
    @pytest.mark.parametrize("p, lam, offset", REMAINDER_BUMPS)
    def test_finite_part_action(self, p, lam, offset):
        truth = float(remainder_truth(p, lam, PI + offset, PI))
        value = finite_part_action(mollifier(p, 1).dilated(lam).shifted(PI + offset))
        assert value.imag == 0.0
        # relative 1e-11, and never past 1e-9 where the value reaches 6350
        assert abs(value.real - truth) <= min(1e-9, 1e-11 * max(1.0, abs(truth)))

    @pytest.mark.parametrize("p, lam, centre, pole", [
        (0, 0.25, PI, PI),                  # support (pi - 4, pi + 4) > cell
        (4, 3.0, 3 * PI + 0.1, 3 * PI),     # the next cell's pole
    ])
    def test_alternating_series_cell(self, p, lam, centre, pole):
        tf = mollifier(p, 1).dilated(lam).shifted(centre)
        truth = remainder_truth(p, lam, centre, pole)
        value = _remainder_cell_action(tf, *tf.support, pole)
        assert abs(value.real - float(truth)) <= 1e-11 * max(1.0, abs(float(truth)))

    @pytest.mark.parametrize("p, gap, side", NEAR_POLE_BUMPS, ids=[
        f"{p}-{gap}-{_EDGE[side]}" for p, gap, side in NEAR_POLE_BUMPS])
    def test_alternating_series_pole_just_outside_the_support(self, p, gap, side):
        # half-width 0.001 with the pole gap outside a support edge: the
        # kernel is smooth on the support, so the cell is a plain integral,
        # within 2.5e-13.  finite_part_action keeps the remainder route, whose
        # tolerance is relative to max|phi''| times the span, and misses by
        # 5e-10 to 1.1e-8 here (ROADMAP item 4)
        centre = PI + side * (gap + 0.001)
        truth = float(remainder_truth(p, 1000.0, centre, PI))
        value = alternating_series_action(mollifier(p, 1).dilated(1000.0).shifted(centre))
        assert abs(value - truth) <= 1e-11

    def test_narrow_feature_inside_wide_support(self):
        # a half-width 0.01 bump inside a width-2 one: refinement has to find
        # it, and phi is built from plain callables evaluated at the rounded
        # pi + x, so the tolerance is taken relative to the probed size of
        # phi'' (at an absolute 1e-10 the quadrature stalls on that noise)
        wide = mollifier(0, 1).shifted(PI + 0.2)
        narrow = mollifier(2, 1).dilated(100.0).shifted(PI + 0.5)
        both = SimpleNamespace(value=lambda t: wide(t) + narrow(t),
                               deriv=lambda t: wide.deriv(t) + narrow.deriv(t),
                               deriv2=lambda t: wide.deriv2(t) + narrow.deriv2(t),
                               support=wide.support)
        tf = SmoothTF(both)
        truth = (remainder_truth(0, 1.0, PI + 0.2, PI)
                 + remainder_truth(2, 100.0, PI + 0.5, PI))
        assert abs(finite_part_action(tf) - float(truth)) < 1e-9


class TestFinitePartEpsilon:
    def test_zero_function(self):
        rec = finite_part_action_epsilon(zero_tf())
        assert rec.converged
        assert abs(rec.extrapolated) == 0.0

    def test_vanishing_at_pole_means_no_correction(self):
        # support away from pi: the counterterm is 0 at every eps and the
        # ladder is constant at the proper integral
        tf = mollifier(0, 2).shifted(1.0)
        rec = finite_part_action_epsilon(tf)
        plain = integrate(lambda t: tf(t) * alternating_kernel(t), *tf.support)
        values = [v for _, v in rec.samples]
        assert max(abs(v - values[0]) for v in values) < 1e-10
        assert abs(rec.extrapolated - plain) < 1e-9

    def test_support_violation(self):
        with pytest.raises(ValueError, match="support"):
            finite_part_action_epsilon(mollifier(0, 2).shifted(-1.0))

    def test_level_floor(self):
        with pytest.raises(ValueError):
            finite_part_action_epsilon(zero_tf(), levels=2)

    def test_level_ceiling(self):
        with pytest.raises(ValueError, match="levels"):
            finite_part_action_epsilon(zero_tf(), levels=MAX_LEVELS + 1)

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_support_edge_just_past_the_pole(self, p):
        # the right support edge 0.004 to 0.03 past pi: the bump is not
        # analytic there, so only samples with eps below that distance may
        # enter the tableau
        for half in (0.1, 0.3, 0.5):
            for edge in (0.004, 0.01, 0.02, 0.03):
                tf = mollifier(p, 1).dilated(1.0 / half).shifted(PI + edge - half)
                rec = finite_part_action_epsilon(tf)
                assert rec.samples[0][0] < edge <= 2.0 * rec.samples[0][0]
                if rec.converged:
                    miss = abs(rec.extrapolated - finite_part_action(tf))
                    assert miss <= 1e-9, (half, edge, miss)

    @pytest.mark.parametrize("edge, fit", [(2e-6, 2), (1e-6, 1), (1e-7, 0)])
    def test_too_few_levels_below_the_edge_distance(self, edge, fit):
        # eps = EPS_TOP 2^-18 and 2^-19 lie below 2e-6, only 2^-19 below
        # 1e-6, and none below 1e-7
        tf = mollifier(0, 1).dilated(10.0).shifted(PI + edge - 0.1)
        rec = finite_part_action_epsilon(tf)
        assert not rec.converged
        assert rec.error_estimate == math.inf
        fitted = [EPS_TOP * 0.5**j for j in range(MAX_LEVELS - fit, MAX_LEVELS)]
        assert [eps for eps, _ in rec.samples] == fitted
        assert rec.extrapolated == (rec.samples[-1][1] if fit else None)

    @pytest.mark.parametrize("p, side, gap", EDGE_POLE_BUMPS, ids=[
        f"{'outside' if gap else 'on'}-{_EDGE[side]}-{p}"
        for p, side, gap in EDGE_POLE_BUMPS])
    def test_pole_on_or_just_outside_a_support_edge(self, p, side, gap):
        # the support ends 0.1 or 0.101 from the pole: the ladder starts
        # below that, not at EPS_TOP, where the samples would be 0
        tf = mollifier(p, 1).dilated(20.0).shifted(PI + side * (0.05 + gap))
        rec = finite_part_action_epsilon(tf)
        assert rec.samples[0][0] < 0.1 + gap
        assert rec.converged
        miss = abs(rec.extrapolated - finite_part_action(tf))
        assert miss <= 1e-9, miss
        assert miss <= rec.error_estimate, (miss, rec.error_estimate)

    def test_second_order_zero_at_pole_gives_improper_integral(self):
        # phi(pi) = phi'(pi) = 0: the counterterm vanishes at every eps and
        # the limit is the improper integral of the continuous extension
        tf = mollifier(2, 1).shifted(PI)
        dd_at_pole = float(tf.deriv2(np.array([PI]))[0])

        def extended(t):
            t = np.asarray(t, dtype=float)
            out = np.empty_like(t)
            at_pole = t == PI
            away = ~at_pole
            out[away] = tf(t[away]) * centered_kernel(t[away] - PI)
            out[at_pole] = 0.5 * dd_at_pole
            return out

        improper = integrate(extended, *tf.support, breakpoints=(PI,))
        rec = finite_part_action_epsilon(tf)
        assert rec.converged
        assert abs(rec.extrapolated - improper) < 1e-8


class TestRepresentationEquivalence:
    def test_randomized_test_functions(self):
        # the worst gap between the routes is 3.52e-13 with numpy's AVX512
        # loops and 7.14e-13 without them, where it passes the epsilon
        # route's error_estimate of 4.9e-13 (ROADMAP item 3): the bound is
        # measured, not estimated
        rng = random.Random(20260810)
        for i in range(8):
            p = rng.choice([0, 2, 4])
            m = rng.choice([1, 2, 3])
            if i % 2 == 0:
                center = PI + rng.uniform(-0.3, 0.3)
            else:
                center = rng.uniform(0.7, 2 * PI - 0.7)
            amp = rng.uniform(0.5, 2.0)
            tf = mollifier(p, m).shifted(center).scaled(amp)
            a = finite_part_action(tf)
            b = finite_part_action_epsilon(tf)
            assert abs(a - b.extrapolated) < 2e-12, (p, m, center)


class TestAlternatingSeriesAction:
    def test_zero_function(self):
        assert alternating_series_action(zero_tf()) == 0j

    def test_mollifier_at_origin_is_plain_integral(self):
        # no pole meets the support; the comb contributes nothing
        tf = mollifier(0, 2)
        plain = integrate(lambda t: tf(t) * alternating_kernel(t), *tf.support)
        assert abs(alternating_series_action(tf) - plain) < 1e-10

    def test_comb_contribution_is_minus_i_pi_phi_prime(self):
        # odd about pi: the finite-part piece vanishes, leaving the comb term
        tf = slope_bump_at(PI, 0.09)
        d_at_pole = float(tf.deriv(np.array([PI]))[0])
        got = alternating_series_action(tf)
        assert abs(got.imag - (-PI * d_at_pole)) < 1e-10
        assert abs(got.real) < 1e-10

    def test_periodicity(self):
        tf = mollifier(0, 2).shifted(0.7)
        a = alternating_series_action(tf)
        b = alternating_series_action(tf.shifted(2 * PI))
        c = alternating_series_action(tf.shifted(-4 * PI))
        assert abs(a - b) < 1e-9 and abs(a - c) < 1e-9

    @pytest.mark.parametrize("k", range(3, 31))
    def test_far_shift_is_reduced_exactly(self, k):
        # a float multiple of 2 pi drifts from the true pole: without an exact
        # reduction the pairing misses by 0.28 at 1e14 and 0.97 at 1e15
        mpmath = pytest.importorskip("mpmath")
        a = 10.0**k
        with mpmath.workdps(50):
            two_pi = 2 * mpmath.pi
            r = float(a - mpmath.nint(a / two_pi) * two_pi)
        tf = mollifier(2, 1)
        want = alternating_series_action(tf.shifted(r))
        assert (abs(alternating_series_action(tf.shifted(a)) - want)
                <= 1e-12 * min(1.0, abs(want)))

    @pytest.mark.parametrize("k", [10**6, 10**9, 10**12, 10**15])
    def test_far_period_multiple_is_no_shift(self, k):
        # s is the double nearest 2 pi k, so shifting by s is shifting by
        # s - 2 pi k, which cancels about 16 leading digits of s
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            s = float(2 * mpmath.pi * k)
            off = float(s - 2 * mpmath.pi * k)
        tf = mollifier(2, 1)
        want = alternating_series_action(tf.shifted(off))
        assert abs(alternating_series_action(tf.shifted(s)) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("a", [1e31, -1e31, math.inf, math.nan])
    def test_shift_past_the_reduction_bound_is_rejected(self, a):
        with pytest.raises(ValueError, match="shift"):
            alternating_series_action(mollifier(2, 1).shifted(a))

    def test_wide_support_spanning_cells(self):
        # support (-5, 5) covers both poles at +-pi; check the kernel-and-comb
        # evaluation against the lacunary Fourier series route
        tf = mollifier(0, 1).dilated(0.2)
        assert homothety_pairing_check(tf, 1.0)

    def test_agrees_with_lacunary_series_at_lambda_one(self):
        assert homothety_pairing_check(mollifier(0, 1), 1.0)

    def test_extreme_supports_are_rejected_promptly(self):
        # about 1e299 period cells, an infinite support edge, a nan dilation
        start = time.perf_counter()
        for lam in (1e-300, 1e-320, float("nan")):
            with pytest.raises(ValueError):
                alternating_series_action(mollifier().dilated(lam))
        assert time.perf_counter() - start < 1.0

    def test_support_checked_once_per_call(self, monkeypatch):
        # a support over 4 periods meets 5 cells, 4 of them with a pole inside
        calls = []
        monkeypatch.setattr("divsum.distributions._support",
                            lambda phi: calls.append(1) or _support(phi))
        alternating_series_action(mollifier(2, 1).dilated(0.25 / PI).shifted(0.3))
        finite_part_action(mollifier(0, 1).shifted(PI))
        assert len(calls) == 2


class TestAllPlusSeriesAction:
    # a zero bump at a tiny shift: the grading's edge at the shift and the
    # breakpoint 0 make a panel [0, shift] on which sin^2(x/2) underflows to 0
    @pytest.mark.parametrize("chi", [zero_tf(-0.5, 0.5)] + [
        mollifier(p, 1).shifted(s).scaled(0) for p in (2, 4)
        for s in (0.0, 1e-150, 3.6e-169, -3.6e-169, 1e-200, 5e-324)],
        ids=lambda chi: f"p{chi.base.vanishing_order}-shift{chi.shift:g}"
        if isinstance(chi.base, Mollifier) else "zero-base")
    def test_zero_function(self, chi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all_plus_series_action(chi) == 0j

    def test_requires_vanishing_at_origin(self):
        with pytest.raises(ValueError, match="vanish"):
            all_plus_series_action(mollifier(0, 1))

    @pytest.mark.parametrize("amp", [1e-8, 1e-10, 1e-12, 1e-20, 1e-30, 1e-300, 5e-324])
    def test_vanishing_is_judged_at_chi_own_scale(self, amp):
        # chi(0) = 0.83 amp.  An absolute test, 1e-9 (1 + max|chi|), would
        # send amp 1e-10 and 1e-12 to a stalled quadrature, and return
        # -1.27e-16 at amp 1e-20 for a pairing that does not exist
        chi = mollifier(0, 1).dilated(4).scaled(amp)
        with pytest.raises(ValueError, match="vanish"):
            all_plus_series_action(chi)
        assert all_plus_series_action(chi.scaled(0.0)) == 0j

    def test_support_restriction(self):
        with pytest.raises(ValueError, match="support"):
            all_plus_series_action(mollifier(2, 1).dilated(0.5))

    def test_quadratic_divergence_constant(self):
        # <T0, phi_m> ~ -m^2 * (second moment)/(fourth moment) for p = 4
        ratio = bump_moment(2) / bump_moment(4)
        for m in (16, 64):
            v = all_plus_series_action(mollifier(4, m))
            predicted = -(m**2) * ratio
            assert abs(v.real / predicted - 1.0) < 2e-3
            assert abs(v.imag) < 1e-10

    def test_doubling_scale_quadruples_value(self):
        v32 = all_plus_series_action(mollifier(4, 32)).real
        v64 = all_plus_series_action(mollifier(4, 64)).real
        assert abs(v64 / v32 - 4.0) < 1e-3

    def test_translation_identity_with_alternating_action(self):
        # pairing with chi equals minus the alternating pairing of chi shifted by pi
        chi = mollifier(2, 1)
        a = all_plus_series_action(chi)
        b = -alternating_series_action(chi.shifted(PI))
        assert abs(a - b) < 1e-6


# c_n ladders whose error estimate falls short of the miss (ROADMAP item 3):
# |n| = 27..32 at 7 levels and |n| = 31, 32 at 8, by factors 1.04 to 1.55;
# the worst, n = +-32 at 7 levels, misses by 3.35e-7 against 2.16e-7.  The
# ratios near 1.04 sit close enough to 1 that BLAS rounding may move them,
# so the marks are not strict.
_SHORT_ESTIMATES = {(n, 7) for n in range(27, 33)} | {(31, 8), (32, 8)}
_FOURIER_LADDERS = [
    pytest.param(n, levels, id=f"{n}-{levels}", marks=[pytest.mark.xfail(
        reason="estimate is the last correction (ROADMAP item 3)", strict=False)]
        if (abs(n), levels) in _SHORT_ESTIMATES else [])
    for levels in range(4, MAX_LEVELS + 1) for n in range(-32, 33)
]


class TestFourierCoefficients:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, -2.0), (0, 0.0), (-3, 0.0)])
    def test_theorem_values(self, n, expected):
        rec = fourier_coefficient_numeric(n)
        assert rec.converged
        assert abs(rec.extrapolated - expected) < 1e-8

    def test_boundary_indices(self):
        hi = fourier_coefficient_numeric(32)
        lo = fourier_coefficient_numeric(-32)
        assert abs(hi.extrapolated - (-32.0)) < 1e-8
        assert abs(lo.extrapolated) < 1e-8

    def test_range_guard(self):
        with pytest.raises(ValueError):
            fourier_coefficient_numeric(33)

    @pytest.mark.parametrize("n", [2.5, -0.5, 1e-300, math.nan, math.inf])
    def test_non_integral_index_rejected(self, n):
        with pytest.raises(ValueError, match="must"):
            fourier_coefficient_numeric(n)

    @pytest.mark.parametrize("n, same", [(3, np.int64(3)), (2, 2.0), (-5, -5.0)])
    def test_integral_index_of_any_type(self, n, same):
        # bit for bit: repr shows every digit of every sample
        expected = repr(fourier_coefficient_numeric(n))
        assert repr(fourier_coefficient_numeric(same)) == expected

    def test_deepest_ladder(self):
        # MAX_LEVELS itself is checked for every index below
        with pytest.raises(ValueError, match="levels"):
            fourier_coefficient_numeric(32, levels=MAX_LEVELS + 1)

    @pytest.mark.parametrize("levels", [DEFAULT_EPS_LEVELS, MAX_LEVELS])
    def test_every_index_within_its_error_estimate(self, levels):
        # the Fejer form has no counterterm to cancel against, so the
        # samples are real and the deepest ladder is as good as the default
        for n in range(-32, 33):
            rec = fourier_coefficient_numeric(n, levels=levels)
            truth = (-1) ** (n - 1) * n if n >= 1 else 0
            miss = abs(rec.extrapolated - truth)
            assert rec.converged, n
            assert rec.extrapolated.imag == 0.0, n
            assert miss <= rec.error_estimate, (n, miss, rec.error_estimate)
            assert miss <= 1e-11, (n, miss)

    @pytest.mark.parametrize("n, levels", _FOURIER_LADDERS)
    def test_miss_within_error_estimate_at_every_depth(self, n, levels):
        rec = fourier_coefficient_numeric(n, levels=levels)
        truth = (-1) ** (n - 1) * n if n >= 1 else 0
        miss = abs(rec.extrapolated - truth)
        assert miss <= rec.error_estimate or not rec.converged, (
            miss, rec.error_estimate)

    @pytest.mark.parametrize("levels", range(4, MAX_LEVELS + 1))
    def test_closed_form_matches_the_quadrature_oracle(self, levels):
        # measured worst over the 1105 ladders: 7.1e-15 on a sample and
        # 1.8e-14 on an extrapolant
        for n in range(-32, 33):
            rec = fourier_coefficient_numeric(n, levels=levels)
            ref = fourier_coefficient_quadrature(n, levels)
            assert rec.converged == ref.converged, n
            assert abs(rec.extrapolated - ref.extrapolated) <= 1e-13, n
            for (eps, v), (eps_ref, v_ref) in zip(rec.samples, ref.samples,
                                                  strict=True):
                assert eps == eps_ref and abs(v - v_ref) <= 1e-13, (n, eps)

    def test_cached_records_round_as_the_plain_sum(self):
        # every record bit for bit, repr showing every digit of every field:
        # first as built on a cold cache, then as the cache hands it back
        _coefficient_ladder.cache_clear()
        for _ in ("miss", "hit"):
            for levels in range(4, MAX_LEVELS + 1):
                for n in range(-32, 33):
                    assert (repr(fourier_coefficient_numeric(n, levels))
                            == repr(fourier_coefficient_plain(n, levels))), (n, levels)

    def test_ladder_is_epsilon_indexed(self):
        rec = fourier_coefficient_numeric(1, levels=5)
        params = [p for p, _ in rec.samples]
        assert params[0] == 0.5 and all(b < a for a, b in zip(params, params[1:]))

    @pytest.mark.parametrize("n", [0, 1, 5, -7, 16])
    def test_samples_match_mpmath_windows(self, n):
        # every sample, not only the extrapolant: the window integral is
        # 2 (-1)^n int_eps^pi cos(n x) / (4 sin^2(x/2)) dx (the sine part
        # cancels on the symmetric window), here at 32 digits with
        # Gauss-Legendre on 32 panels over (eps_0, pi) plus one panel per
        # halving sliver; no node at 0.  The library integrates the Fejer
        # form, which never cancels against 1/tan(eps/2), so the bound does
        # not grow as eps shrinks.
        mpmath = pytest.importorskip("mpmath")
        rec = fourier_coefficient_numeric(n, levels=10)
        sign = -1 if n % 2 else 1
        with mpmath.workdps(32):
            def g(x):
                return mpmath.cos(n * x) / (4 * mpmath.sin(x / 2) ** 2)

            prev = mpmath.mpf(rec.samples[0][0])
            window = mpmath.quad(g, mpmath.linspace(prev, mpmath.pi, 33),
                                 method="gauss-legendre")
            for eps, value in rec.samples:
                e = mpmath.mpf(eps)
                if e < prev:
                    window += mpmath.quad(g, [e, prev], method="gauss-legendre")
                    prev = e
                truth = (2 * sign * window - sign / mpmath.tan(e / 2)
                         - sign * n * mpmath.pi) / (2 * mpmath.pi)
                err = abs(complex(value) - complex(truth))
                assert err <= 1e-14, (eps, err)


class TestFourierCoefficientCache:
    """One record per validated (n, levels), shared by every caller."""

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        _coefficient_ladder.cache_clear()

    def test_every_spelling_of_a_key_shares_one_record(self):
        rec = fourier_coefficient_numeric(5)
        for same in (fourier_coefficient_numeric(5.0),
                     fourier_coefficient_numeric(np.int64(5)),
                     fourier_coefficient_numeric(5, 10),
                     fourier_coefficient_numeric(levels=10, n=5)):
            assert same is rec
        assert _coefficient_ladder.cache_info().currsize == 1

    def test_bool_shares_the_int_entry(self):
        assert fourier_coefficient_numeric(True) is fourier_coefficient_numeric(1)
        assert _coefficient_ladder.cache_info().currsize == 1

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": [1]}, "n must be a real number"),
        ({"n": math.nan}, "n must be an integer"),
        ({"n": 33}, "n must be <= 32"),
        ({"n": 2.5}, "n must be an integer"),
        ({"n": 1, "levels": 3}, "levels must be >= 4"),
        ({"n": 1, "levels": 21}, "levels must be <= 20"),
    ])
    def test_bad_input_raises_before_the_cache(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fourier_coefficient_numeric(**kwargs)
        assert _coefficient_ladder.cache_info().currsize == 0

    def test_domain_bounds_the_cache(self):
        for levels in range(4, MAX_LEVELS + 1):
            for n in range(-32, 33):
                fourier_coefficient_numeric(n, levels)
        assert _coefficient_ladder.cache_info().currsize == 65 * 17 == 1105

    def test_record_is_hashable(self):
        rec = fourier_coefficient_numeric(-7, 6)
        assert hash(rec) == hash(fourier_coefficient_numeric(-7, 6))


class TestMollifiedLimits:
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_alternating_action_sums_to_quarter(self, p):
        rec = mollified_limit(alternating_series_action, p)
        assert rec.converged
        assert abs(rec.extrapolated - 0.25) < 1e-12
        # eliminating 1/m^2, 1/m^4, ... already pins the limit from m <= 16
        short = mollified_limit(alternating_series_action, p, levels=4)
        assert abs(short.extrapolated - 0.25) < 1e-10

    @pytest.mark.parametrize("tail", [math.inf, -math.inf, math.nan])
    def test_non_finite_pairing_is_unconverged(self, tail):
        # an infinite or nan pairing is never divergence: the ladder is
        # unconverged with an infinite estimate, and its JSON holds no NaN
        rec = mollified_limit(lambda phi: phi.lam if phi.lam < 32 else tail, 0, 5)
        assert (rec.error_estimate, rec.converged, rec.growth_exponent) == (
            math.inf, False, None)
        json.dumps(rec.to_json_obj(), allow_nan=False)

    def test_divergent_all_plus_ladder(self):
        rec = mollified_limit(all_plus_series_action, 4, levels=8)
        assert not rec.converged
        assert rec.extrapolated is None
        assert abs(rec.growth_exponent - 2.0) < 0.1
        assert rec.samples[-1][1].real < 0

    @pytest.mark.parametrize("p, miss", [(2, 2.7e-11), (4, 1.3e-11)])
    def test_all_plus_ladder_carries_zeta_minus_one(self, p, miss):
        # samples -a m^2 + zeta(-1) + O(1/m^2): one step (4 s(m) - s(2m)) / 3
        # removes the m^2 term, and the 1/m^2 ladder then lands on -1/12.
        # The miss is asserted, not error_estimate, which reads 7e-15 to
        # 1.6e-13 (ROADMAP item 3)
        s = [v for _, v in mollified_limit(all_plus_series_action, p, 8).samples]
        value, _, converged = richardson_extrapolate(
            [(4 * a - b) / 3 for a, b in zip(s, s[1:])], 2)
        assert converged
        assert abs(value - float(sum_powers(1).value)) < 2 * miss

    @pytest.mark.parametrize("p, bound", [(0, 5e-13), (2, 3e-12), (4, 7e-12)])
    def test_s_ladder_carries_a3(self, p, bound):
        # the CLI's S samples are 1/4 - A_3 mu_{p+2} / (2 mu_p m^2) + O(1/m^4)
        # with A_3 = 1^3 - 2^3 + 3^3 - ... = -1/8, so (s(m) - 1/4) m^2 on the
        # 1/m^2 ladder lands on -A_3 mu_{p+2} / (2 mu_p).  At 4 levels the
        # misses, 2.1e-13, 8.3e-13 and 1.9e-12 at p = 0, 2, 4, are within
        # error_estimate.  At 5 levels they are 2.0e-13, 1.2e-12 and 3.4e-12
        # against estimates of 5e-15 to 6.1e-15, too small (ROADMAP item 3),
        # so the bound is about twice the miss; both hold with numpy's
        # AVX512 loops switched off
        pytest.importorskip("mpmath")
        mu = bump_moments()
        a3 = alternating_sum_powers(3).value
        truth = float(-a3 * mu[p + 2] / (2 * mu[p]))
        for levels in (4, 5):
            rec = jump_average(alternating_kernel, p, levels)
            value, estimate, converged = richardson_extrapolate(
                [(v - 0.25) * m * m for m, v in rec.samples], 2)
            assert converged, levels
            miss = abs(value - truth)
            assert miss <= (estimate if levels == 4 else bound), (levels, miss)

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_third_derivative_base(self, p):
        # the oracle's phi''' against a fourth-order central difference of
        # its value, which is Mollifier.deriv2
        base, h = BumpSecondDerivative(p), 1e-4
        t = np.linspace(-0.9, 0.9, 37)
        assert np.array_equal(base.value(t), Mollifier(p).deriv2(t))
        d = (8 * (base.value(t + h) - base.value(t - h))
             - (base.value(t + 2 * h) - base.value(t - 2 * h))) / (12 * h)
        exact = base.deriv(t)
        # the difference misses by 2.7e-11 of max |phi'''| at most
        assert np.max(np.abs(d - exact)) <= 1e-10 * np.max(np.abs(exact))
        assert np.array_equal(base.deriv(np.array([-1.0, 1.0, 2.0])), np.zeros(3))

    @pytest.mark.parametrize("p, bound", [(0, 2e-10), (2, 1.8e-9), (4, 4.6e-9)])
    def test_s_second_derivative_ladder_sums_a3(self, p, bound):
        # the paper's k = 3 through the distributions: sum (-1)^{n+1} n^3 e^{int}
        # is -S'', so its pairing with phi_m is <S, -phi_m''>, and on the 10-level
        # scale ladder it tends to A_3 = 1^3 - 2^3 + 3^3 - ... = -1/8.  Misses
        # 9.9e-11, 8.9e-10 and 2.3e-9 at p = 0, 2, 4, and 1.5e-11, 8.7e-10 and
        # 1.3e-9 with numpy's AVX512 loops switched off; each bound is about
        # twice the larger.  error_estimate reads 5e-15 to 8.8e-15, too small
        # (ROADMAP item 3), so it is not asserted
        base = BumpSecondDerivative(p)
        values = [alternating_series_action(SmoothTF(base, lam=m, amp=-m**3))
                  for m in (2 * 2**j for j in range(10))]
        value, _, converged = richardson_extrapolate(values, 2)
        assert converged
        assert abs(value - float(alternating_sum_powers(3).value)) <= bound

    def test_t0_second_derivative_ladder_sums_zeta_minus_three(self):
        # sum n^3 e^{int} is -T0'': paired with phi_m at p = 4, where phi''
        # still vanishes to second order at 0, it is c m^4 + zeta(-3) + O(1/m^2).
        # One step (16 s(m) - s(2m)) / 15 removes the m^4 term, and the 1/m^2
        # ladder from 4 levels lands on zeta(-3) = 1/120 within 3.3e-10 on both
        # numpy dispatch paths; the bound is about twice that.  The miss, not
        # error_estimate (4e-8 here), is asserted (ROADMAP item 3)
        base = BumpSecondDerivative(4)
        s = [all_plus_series_action(SmoothTF(base, lam=m, amp=-m**3))
             for m in (2, 4, 8, 16)]
        value, _, converged = richardson_extrapolate(
            [(16 * a - b) / 15 for a, b in zip(s, s[1:])], 2)
        assert converged
        assert abs(value - float(sum_powers(3).value)) <= 7e-10

    @pytest.mark.parametrize("target, p, bound", [
        ("S", 0, 1.5e-15), ("S", 2, 8e-15), ("S", 4, 2e-14),
        ("H2S", 0, 1.5e-15), ("H2S", 2, 8e-15), ("H2S", 4, 5e-16),
        ("T0", 2, 3e-16), ("T0", 4, 3e-16),
        ("cos", 0, 1.6e-15), ("cos", 2, 8e-15), ("cos", 4, 5e-16)])
    def test_every_sample_matches_the_moment_series(self, target, p, bound):
        # each sample is a series in the bump's moments whose coefficients
        # are the paper's values: A_1 = 1/4 (1 - 2 + 3 - ...) and
        # zeta(-1) = -1/12 (1 + 2 + 3 + ...) lead.  H2S at m is S's series
        # at m / 2, from m = 4 on; jump:cos's coefficients are all 1.
        # Worst relative misses measured at p = 0, 2, 4: S 6.7e-16, 3.7e-15,
        # 1.04e-14; H2S 6.7e-16, 3.7e-15, 2.2e-16; T0 (p = 2, 4) 1.4e-16,
        # 1.5e-16; cos 7.8e-16, 3.6e-15, 2.2e-16.  Each bound is about twice
        # its miss
        pytest.importorskip("mpmath")
        levels, first_m, series = {
            "S": (10, 2, alternating_scale_sample),
            "H2S": (10, 4, lambda p, m: alternating_scale_sample(p, m / 2)),
            "T0": (8, 2, all_plus_scale_sample),
            "cos": (10, 2, cos_scale_sample),
        }[target]
        rec = _LADDERS[target](p, levels)
        assert len(rec.samples) == levels
        for m, value in rec.samples:
            if m >= first_m:
                truth = series(p, m)
                assert abs(value - truth) <= bound * abs(truth), (m, value, truth)

    def test_jump_heaviside(self):
        rec = jump_average(JUMPS["heaviside"])
        assert rec.converged and abs(rec.extrapolated - 0.5) < 1e-6

    def test_jump_sign(self):
        rec = jump_average(JUMPS["sign"])
        assert rec.converged and abs(rec.extrapolated) < 1e-6

    def test_jump_cos(self):
        for p in (0, 2, 4):
            rec = jump_average(np.cos, vanishing_order=p)
            assert rec.converged and abs(rec.extrapolated - 1.0) < 1e-12, p

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_jump_step_plus_smooth(self, p):
        # exp has odd derivatives, but equal ones on both sides of 0, so the
        # pairing still runs in even powers of 1/m
        f = lambda t: np.where(np.asarray(t) > 0, 1.0, 0.0) + np.exp(t)
        rec = jump_average(f, levels=5, vanishing_order=p)
        assert rec.converged and abs(rec.extrapolated - 1.5) < 1e-12

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_jump_kink_leaves_a_one_over_m_miss(self, p):
        # exp(t) H(t) has f'(0+) != f'(0-), outside jump_average's contract:
        # the 1/m term survives the even-power ladder, so the miss halves
        # with each level while the error estimate stays far below it
        kink = lambda t: np.where(np.asarray(t) > 0, np.exp(t), 0.0)
        misses = []
        for levels in (9, 10):
            rec = jump_average(kink, levels=levels, vanishing_order=p)
            misses.append(abs(rec.extrapolated - 0.5))
            assert 1e-5 < misses[-1] < 1e-3
            assert rec.error_estimate < 1e-2 * misses[-1]
        assert abs(misses[0] / misses[1] - 2.0) < 1e-3


def _count_integrand_calls(monkeypatch) -> list:
    """Patch the quadrature's one integrand call site; the list grows by one
    per adaptive round."""
    calls = []

    def counted(f, lo, hi):
        calls.append(lo.size)
        return panel_values(f, lo, hi)

    monkeypatch.setattr("divsum.quadrature._panel_values", counted)
    return calls


def _without_grading(monkeypatch, compute):
    with monkeypatch.context() as patch:
        patch.setattr("divsum.panels._BUMP_GRADING", ())
        return compute()


_LADDERS = {
    "S": lambda p, n: mollified_limit(alternating_series_action, p, n),
    "H2S": lambda p, n: mollified_limit(
        lambda tf: 0.5 * alternating_series_action(tf.dilated(0.5)), p, n),
    "T0": lambda p, n: mollified_limit(all_plus_series_action, p, n),
    **{name: lambda p, n, f=f: jump_average(f, p, n) for name, f in JUMPS.items()},
}


class TestBumpGrading:
    """The bump's grading is seeded as panel edges: a scale-ladder pairing
    converges in its first adaptive round, to the value bisection finds."""

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_scale_ladder_takes_one_round_per_level(self, p, monkeypatch):
        calls = _count_integrand_calls(monkeypatch)
        mollified_limit(alternating_series_action, p, 10)
        assert len(calls) == 10  # 80 by bisection: 4 rounds for each of 2 cells

    @pytest.mark.parametrize("target, p, levels, expected", [
        ("H2S", 0, 10, 10), ("H2S", 2, 10, 10), ("H2S", 4, 10, 20),
        ("T0", 2, 8, 11), ("T0", 4, 8, 12)])
    def test_scale_ladder_integrand_calls(self, target, p, levels, expected,
                                          monkeypatch):
        # H2S at p = 4 bisects the outermost panels in a second round on
        # every level; T0, whose +-15/16 edges are seeded, does so from
        # m = 64 (p = 2) or m = 32 (p = 4) on
        calls = _count_integrand_calls(monkeypatch)
        _LADDERS[target](p, levels)
        assert len(calls) == expected

    @pytest.mark.parametrize("p, rounds", [(0, 1), (2, 1), (4, 2)])
    def test_jump_average_takes_one_round_per_level(self, p, rounds, monkeypatch):
        # one pass for the whole ladder; at p = 4 the panels at the support
        # edges are bisected once more
        calls = _count_integrand_calls(monkeypatch)
        jump_average(np.cos, vanishing_order=p)
        assert len(calls) == rounds  # 40 by bisection level by level, 50 at p = 4

    @pytest.mark.parametrize("target", sorted(_LADDERS))
    def test_ladders_match_plain_bisection(self, target, monkeypatch):
        for p in (2, 4) if target == "T0" else (0, 2, 4):
            for levels in (3, 10, 20):
                graded = _LADDERS[target](p, levels)
                plain = _without_grading(
                    monkeypatch, lambda: _LADDERS[target](p, levels))
                assert graded.converged == plain.converged
                pairs = [(a, b) for (_, a), (_, b) in zip(graded.samples, plain.samples)]
                if plain.extrapolated is not None:
                    pairs.append((graded.extrapolated, plain.extrapolated))
                for a, b in pairs:  # the floor is for the sign ladder's zeros
                    assert abs(a - b) <= 1e-13 * abs(b) + 1e-16, (p, levels)

    def test_alternating_action_matches_plain_bisection(self, monkeypatch):
        # the benchmark's bumps, spanning 1.5 to 4 periods, three per cell;
        # the two layouts differ by up to 1e-13 absolute, within the absolute
        # 1e-10 contract
        bumps = [tf for draw in SPANNING_BUMPS for _, _, tf in draw]
        graded = [alternating_series_action(tf) for tf in bumps]
        plain = _without_grading(
            monkeypatch, lambda: [alternating_series_action(tf) for tf in bumps])
        for a, b in zip(graded, plain):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_remainder_route_matches_plain_bisection(self, monkeypatch):
        # narrow bumps across, at and past the pole.  The route's tolerance
        # is relative to max|phi''| times the span, 1e3 to 1e4 times the value
        # when the pole is outside, so the layouts agree as each agrees with
        # the mpmath truth in TestRemainderRouteAgainstMpmath (about 3e-12)
        bumps = [mollifier(p, 1).dilated(1.0 / hw).shifted(PI + off * hw)
                 for p in (0, 2, 4) for hw in (0.001, 0.005, 0.02, 0.1, 0.5)
                 for off in (0.0, 0.5, 0.99, 1.01, 1.5, 3.0)]
        graded = [finite_part_action(tf) for tf in bumps]
        plain = _without_grading(
            monkeypatch, lambda: [finite_part_action(tf) for tf in bumps])
        for a, b in zip(graded, plain):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


_KINK = lambda t: np.where(np.asarray(t) > 0, np.exp(t), 0.0)
# the library's kernel of each numerical mollify target
_LIBRARY_KERNELS = {
    "S": alternating_kernel,
    "H2S": lambda t: alternating_kernel(2.0 * t),
    "T0": lambda t: -centered_kernel(t),
    **{f"jump:{name}": f for name, f in JUMPS.items()},
}


class TestJumpKernelLadder:
    """The ladder's one pass in u = m t gives the samples of pairing f with
    phi_m level by level wherever the levels' panel layouts agree."""

    @pytest.mark.parametrize("f", [*JUMPS.values(), _KINK, lambda t: 0.5],
                             ids=[*JUMPS, "kink", "constant"])
    @pytest.mark.parametrize("p", [0, 2, 4])
    @pytest.mark.parametrize("levels", [3, 10, 20])
    def test_matches_the_per_level_pairing(self, f, p, levels):
        rec = jump_average(f, p, levels)
        ref = mollified_limit(jump_pairing(f), p, levels)
        assert rec.converged == ref.converged
        if f is _KINK and p == 2:
            # level by level only m = 2 bisects its two edge panels; the pass
            # bisects them for every m, which moves the other samples by no
            # more than their accepted error estimates
            for (_, a), (_, b) in zip(rec.samples, ref.samples):
                assert abs(a - b) <= TOLERANCE
        else:
            assert repr(rec.samples) == repr(ref.samples)

    @pytest.mark.parametrize("target, p", [
        ("S", 0), ("S", 2), ("S", 4), ("H2S", 0), ("H2S", 2), ("H2S", 4),
        ("T0", 2), ("T0", 4)])
    def test_library_kernels_match_the_per_level_pairing(self, target, p):
        # jump_average pairs S, H2S and T0 in one pass, each through its
        # kernel; _LADDERS pairs phi_m level by level, the reference route.
        # H2S's per-level integral in t = 2u / m is twice its sample, so
        # against the absolute tolerance its p = 4 levels bisect the bump's
        # outermost panels, which the pass accepts in round 0.  The bound is
        # 7e-15 of max(1, |value|); the measured worst gap at 3 to 20 levels
        # is 3.28e-15, at m = 2
        for levels in range(3, MAX_LEVELS + 1):
            rec = jump_average(_LIBRARY_KERNELS[target], p, levels)
            ref = _LADDERS[target](p, levels)
            if (target, p) != ("H2S", 4):
                assert rec == ref, levels
                continue
            assert rec.converged == ref.converged, levels
            pairs = [(a, b) for (_, a), (_, b) in zip(rec.samples, ref.samples)]
            if ref.extrapolated is not None:
                pairs.append((rec.extrapolated, ref.extrapolated))
            for a, b in pairs:
                assert abs(a - b) <= 7e-15 * max(1.0, abs(b)), levels

    @pytest.mark.parametrize("target", sorted(_LIBRARY_KERNELS))
    def test_cli_pass_matches_jump_average(self, target):
        # the CLI runs panels.kernel_ladder, jump_average on plain floats,
        # with its own kernels of one float.  Each panel row is math.fsum of
        # its weighted nodes where jump_average takes BLAS's dot product, and
        # the bump takes libm's exp where numpy may dispatch its own, so the
        # samples differ by a few ulps.  Over all 306 ladders the measured
        # worst gaps are 2.22e-16 of max(1, |sample|) and 3.33e-16 of
        # max(1, |value|) for the extrapolant, on both numpy dispatch paths;
        # the bounds are about twice those
        parser = cli.build_parser()
        for p in (2, 4) if target == "T0" else (0, 2, 4):
            for levels in range(3, MAX_LEVELS + 1):
                args = parser.parse_args(["mollify", "--target", target, "--p", str(p),
                                          "--levels", str(levels)])
                rec = cli._mollify_limit(args)
                ref = jump_average(_LIBRARY_KERNELS[target], p, levels)
                assert rec.converged == ref.converged, (p, levels)
                assert [s for s, _ in rec.samples] == [s for s, _ in ref.samples]
                for (_, a), (_, b) in zip(rec.samples, ref.samples):
                    assert abs(a - b) <= 5e-16 * max(1.0, abs(b)), (p, levels)
                assert (rec.extrapolated is None) == (ref.extrapolated is None)
                if ref.extrapolated is not None:
                    assert abs(rec.extrapolated - ref.extrapolated) <= (
                        7e-16 * max(1.0, abs(ref.extrapolated))), (p, levels)

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_cli_pass_gives_the_odd_sign_kernel_exact_zeros(self, p):
        # each panel row is a correctly rounded sum over one panel, and the
        # bump is exactly even, so mirrored panels cancel bit for bit;
        # jump_average's BLAS rows leave -1.6e-18 (p = 0) and 5.6e-17 (p = 2)
        # on an AVX512 host
        args = cli.build_parser().parse_args(
            ["mollify", "--target", "jump:sign", "--p", str(p), "--levels", "20"])
        rec = cli._mollify_limit(args)
        assert [v for _, v in rec.samples] == [0j] * 20


class TestScaleLadderEstimates:
    """A scale ladder's error estimate bounds its miss at every depth the
    CLI accepts, and the ladder converges from 4 levels on.  At 3 levels
    the cos jump stops short of the convergence bound (estimates 2e-6 to
    9e-6, misses 8e-9 to 4e-8).  The kinked jump is outside the even-power
    contract (see test_jump_kink_leaves_a_one_over_m_miss)."""

    @pytest.mark.parametrize("name,limit,first_levels", [
        ("S", 0.25, 4), ("H2S", 0.25, 4),
        ("heaviside", 0.5, 3), ("sign", 0.0, 3), ("cos", 1.0, 3),
    ])
    def test_miss_within_error_estimate(self, name, limit, first_levels):
        for p in (0, 2, 4):
            for levels in range(first_levels, MAX_LEVELS + 1):
                rec = _LADDERS[name](p, levels)
                miss = abs(rec.extrapolated - limit)
                assert rec.converged or levels == 3, (p, levels)
                assert miss <= rec.error_estimate, (p, levels, miss,
                                                    rec.error_estimate)


class TestDirichletComb:
    def test_closed_form_value(self):
        base = Mollifier(0)
        phi0 = float(base.value(np.array([0.0]))[0])
        assert abs(dirichlet_comb_growth(1) - 2 * PI * phi0) < 1e-12

    def test_linear_in_m(self):
        v1 = dirichlet_comb_growth(1)
        v4 = dirichlet_comb_growth(4)
        v8 = dirichlet_comb_growth(8)
        assert abs(v4 / v1 - 4.0) < 1e-8
        assert abs(v8 / v4 - 2.0) < 1e-8

    def test_ladder_diverges_with_exponent_one(self):
        rec = dirichlet_comb_ladder(6)
        assert not rec.converged
        assert abs(rec.growth_exponent - 1.0) < 0.05

    def test_m_guard(self):
        # nan and inf are input errors too, not a failed float conversion
        for m in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="m must be"):
                dirichlet_comb_growth(m)

    @pytest.mark.parametrize("m", [1e308, pytest.param(10**400, id="10**400"),
                                   2.9e307])
    def test_pairing_past_the_float_range_raises(self, m):
        # 1e308 returned inf, and an int past the float range raised
        # OverflowError; no float holds that int, so it is not a finite m
        match = "^m must be finite$" if m == 10**400 else "outside the float range"
        with pytest.raises(ValueError, match=match):
            dirichlet_comb_growth(m)

    def test_largest_pairing_in_the_float_range(self):
        phi0 = float(Mollifier(0).value(np.array([0.0]))[0])
        m = 2.0e307
        assert dirichlet_comb_growth(m) == 2 * PI * m * phi0

    def test_closed_form_matches_spectral_sum_at_every_cli_scale(self):
        # every m that `mollify --target dirichlet --levels <= 20` reaches;
        # the routes differ by a constant 6.0e-12 relative, the spectral
        # sum's truncation and rounding, so the gap grows like 3e-11 m
        for j in range(20):
            m = 2**j
            closed = dirichlet_comb_growth(m)
            assert abs(closed - comb_spectral_pairing(m)) <= 1e-10 * closed, m

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_kernel_matches_direct_cosine_sum(self, m):
        # each hat(phi_m)(n) = 2 int_0^1 phi(u) cos(n u / m) du summed term by
        # term, on a 20-point Gauss grid independent of the library's
        base = Mollifier(0)
        n_max = math.ceil(_COMB_XI_MAX * m)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, 1.0, 129)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        u = (mid[:, None] + half[:, None] * nodes).ravel()
        w = 2.0 * (weights * half[:, None]).ravel() * base.value(u)
        n = np.arange(1, n_max + 1)
        direct = w.sum() + 2.0 * (np.cos(np.outer(n, u / m)) @ w).sum()
        assert abs(comb_spectral_pairing(m) - direct) < 1e-10

    def test_large_scale_passes_default_tolerance(self):
        # phi(0) = exp(-1) / C_0 without numpy, to the bit of the mollifier's,
        # at every m that `mollify --target dirichlet` reaches
        phi0 = float(Mollifier(0).value(np.array([0.0]))[0])
        for m in [2**j for j in range(20)]:
            assert dirichlet_comb_growth(m) == 2 * PI * m * phi0, m


class TestHomothety:
    def test_identity_dilation(self):
        assert homothety_pairing_check(mollifier(0, 1), 1.0)

    def test_doubling(self):
        assert homothety_pairing_check(mollifier(0, 1), 2.0)

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_non_doubling_factors(self, lam):
        assert homothety_pairing_check(mollifier(0, 1), lam)

    def test_dilated_family_still_sums_to_quarter(self):
        rec = mollified_limit(
            lambda tf: 0.5 * alternating_series_action(tf.dilated(0.5)), 0
        )
        assert rec.converged
        assert abs(rec.extrapolated - 0.25) < 1e-6

    @pytest.mark.parametrize("lam", [0.37, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_shifted_bumps(self, p, lam):
        # the lacunary terms level off at their rounding floor well above
        # 1e-13 here; the series must still stop and agree
        assert homothety_pairing_check(mollifier(p, 1).shifted(0.3), lam)

    def test_narrow_vanishing_bump_at_half(self):
        assert homothety_pairing_check(mollifier(2, 2), 0.5)


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("p,m", [(2, 2), (4, 4)])
    def test_shift_and_subtract_identity_on_pairings(self, p, m):
        # the all-plus pairing minus 4x its dilation-by-2 image equals the
        # alternating pairing, as distributions acting on test functions
        chi = mollifier(p, m)
        lhs = all_plus_series_action(chi) - 4 * 0.5 * all_plus_series_action(
            chi.dilated(0.5)
        )
        rhs = alternating_series_action(chi)
        assert abs(lhs - rhs) < 1e-10

    def test_shift_and_subtract_extraction(self):
        # numerically: the mollified value of the alternating action, fed
        # through 1/(1-4), reproduces the exact closed form -1/12
        from divsum.sums import sum_powers

        rec = mollified_limit(alternating_series_action, 0)
        extracted = rec.extrapolated.real / (1 - 4)
        assert abs(extracted - float(sum_powers(1).value)) < 1e-6


# the five public ladders, each as a function of its depth alone
_PUBLIC_LADDERS = {
    "fourier_coefficient_numeric": lambda levels: fourier_coefficient_numeric(3, levels),
    "finite_part_action_epsilon": lambda levels: finite_part_action_epsilon(
        mollifier(0, 2).shifted(PI), levels),
    "mollified_limit": lambda levels: mollified_limit(
        alternating_series_action, 0, levels),
    "jump_average": lambda levels: jump_average(np.cos, 0, levels),
    "dirichlet_comb_ladder": dirichlet_comb_ladder,
}


@pytest.mark.parametrize("name", sorted(_PUBLIC_LADDERS))
def test_depth_is_integral_of_any_numeric_type(name):
    ladder = _PUBLIC_LADDERS[name]
    for bad in (5.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="levels"):
            ladder(bad)
    # bit for bit: repr shows every digit of every sample
    expected = repr(ladder(5))
    for same in (np.int64(5), 5.0):
        assert repr(ladder(same)) == expected


# (pairing, (p, dilation, shift, amplitude)) whose integrand leaves the float
# range on a panel, named by where the overflow happened: each raised a numpy
# RuntimeWarning under the suite's filter before the panel check saw it
_FLOAT_RANGE_EXITS = [
    pytest.param(alternating_series_action,
                 (0, 449.5741266642689, 2.7782693785236816, 1.7e308), id="run-integrand"),
    pytest.param(finite_part_action_epsilon,
                 (0, 449.5741266642689, 2.7782693785236816, 1.7e308), id="epsilon-fold"),
    pytest.param(all_plus_series_action,
                 (0, 393.9033570139075, 0.5039300762290289, 1.7e308), id="all-plus-integrand"),
    pytest.param(alternating_series_action,
                 (0, 3315.4362914116014, 8.282915655827892, 1.7e308), id="panel-weights"),
    pytest.param(alternating_series_action,
                 (2, 4.026327514388834, 9.467205033533741, 1e305), id="remainder-cell"),
]
_AMPLITUDES = [0.0, 5e-324, 1e-300, 1e-30, 1.0, -1.0, 1e30, 1e300, -1e300, 1e305, 1.7e308]


def _finite_outcome(result) -> bool:
    """A pairing's value, or every sample and the extrapolant of a ladder,
    is finite."""
    if isinstance(result, EpsilonLimit):
        values = [v for _, v in result.samples]
        if result.extrapolated is not None:
            values.append(result.extrapolated)
        return all(map(cmath.isfinite, values))
    return cmath.isfinite(result)


class TestPairingOutcomes:
    """Every public pairing ends in a finite value, a ValueError or an
    ArithmeticError (QuadratureError among them), with no numpy warning,
    whatever the scale of its test function."""

    @pytest.mark.parametrize("pairing, params", _FLOAT_RANGE_EXITS)
    def test_integrand_past_the_float_range_is_a_numerical_failure(self, pairing, params):
        p, dilation, shift, amplitude = params
        tf = mollifier(p, 1).dilated(dilation).shifted(shift).scaled(amplitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="not finite on a panel"):
                pairing(tf)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(VANISHING_ORDERS),
           st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
           st.floats(-10.0, 10.0),
           st.sampled_from(_AMPLITUDES) | st.floats(-1.7e308, 1.7e308),
           st.integers(3, MAX_LEVELS))
    def test_outcome_is_a_value_or_a_typed_error(self, p, dilation, shift, amplitude, levels):
        tf = mollifier(p, 1).dilated(dilation).shifted(shift).scaled(amplitude)
        calls = {
            "finite_part_action": lambda: finite_part_action(tf),
            "finite_part_action_epsilon": lambda: finite_part_action_epsilon(tf, levels),
            "alternating_series_action": lambda: alternating_series_action(tf),
            "all_plus_series_action": lambda: all_plus_series_action(tf),
            "jump_average cos": lambda: jump_average(
                lambda t: amplitude * np.cos(t), p, levels),
            "jump_average sign": lambda: jump_average(
                lambda t: amplitude * np.sign(t), p, levels),
        }
        for name, call in calls.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = call()
                except (ValueError, ArithmeticError):
                    continue
            assert _finite_outcome(result), name
