"""Adaptive Gauss-panel quadrature."""

import math

import numpy as np
import pytest

from divsum.distributions import alternating_kernel
from divsum.mollifiers import mollifier
from divsum.panels import _MAX_ACTIVE_PANELS, _MAX_ROUNDS, _REL_FLOOR, GAUSS_ORDER
from divsum.quadrature import (
    QuadratureError,
    TOLERANCE,
    _NODES,
    _WEIGHTS,
    _panel_values,
    integrate,
    panel_integrals,
)


class TestBasics:
    def test_rule_is_numpys_to_the_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
        assert _NODES.tobytes() == nodes.tobytes()
        assert _WEIGHTS.tobytes() == weights.tobytes()

    def test_polynomial_exact(self):
        v = integrate(lambda x: x**3 - 2 * x + 1, -1.0, 2.0)
        assert abs(v.real - (15.0 / 4 - 3 + 3)) < 1e-13
        assert v.imag == 0.0

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0j
        lo, values = panel_integrals(np.sin, 1.0, 1.0)
        assert lo.size == values.size == 0

    def test_panels_tile_the_interval_and_sum_to_the_integral(self):
        f = lambda x: np.sin(40 * x) / (1.0 + x)
        lo, values = panel_integrals(f, 0.0, 3.0, breakpoints=(1.0,))
        edges = np.append(lo, 3.0)
        assert edges[0] == 0.0 and 1.0 in edges
        assert (np.diff(edges) > 0).all()  # sorted by left edge
        for a, b, v in zip(edges[:-1], edges[1:], values):
            assert abs(v - integrate(f, a, b)) < 1e-13
        assert math.fsum(values.real) == integrate(f, 0.0, 3.0, breakpoints=(1.0,)).real

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.sin, 2.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                      (0.0, -math.inf), (math.inf, 0.0),
                                      (math.nan, 1.0), (0.0, math.nan)])
    def test_non_finite_bound_rejected_before_any_evaluation(self, a, b):
        calls = []
        with pytest.raises(ValueError, match="finite"):
            panel_integrals(lambda x: calls.append(x) or np.exp(-x * x), a, b)
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda x: calls.append(x) or np.exp(-x * x), a, b)
        assert calls == []

    def test_oscillatory(self):
        v = integrate(lambda x: np.sin(40 * x), 0.0, math.pi)
        exact = (1 - math.cos(40 * math.pi)) / 40
        assert abs(v.real - exact) < 1e-11

    def test_complex_integrand(self):
        v = integrate(lambda x: np.exp(1j * x), 0.0, math.pi / 2)
        assert abs(v - (1.0 + 1j)) < 1e-12

    def test_near_singular_with_grading(self):
        # 1/x^2 on (eps, 1): exact value 1/eps - 1
        eps = 1e-4
        v = integrate(lambda x: 1.0 / x**2, eps, 1.0)
        assert abs(v.real - (1.0 / eps - 1.0)) / (1.0 / eps) < 1e-12

    def test_breakpoint_resolves_kink(self):
        v = integrate(np.abs, -1.0, 1.0, breakpoints=(0.0,))
        assert abs(v.real - 1.0) < 1e-13

    def test_narrow_feature_found_by_seeded_edges(self):
        # a bump of width 2e-3 inside a wide interval, seeded by breakpoints
        c, w = 0.123456, 1e-3

        def f(x):
            out = np.zeros_like(x)
            m = np.abs(x - c) < w
            u = (x[m] - c) / w
            out[m] = np.exp(-1.0 / (1.0 - u**2))
            return out

        v = integrate(f, 0.0, 10.0, breakpoints=(c - w, c + w))
        exact = 0.4439938161680793 * w  # mass of the standard bump
        assert abs(v.real - exact) < 1e-12


class TestTolerance:
    def test_default(self):
        assert TOLERANCE == 1e-10

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_invalid_tolerance_rejected_before_any_evaluation(self, tol):
        calls = []
        with pytest.raises(ValueError):
            integrate(lambda x: calls.append(x) or np.sin(x), 0.0, 1.0, tol=tol)
        assert calls == []

    def test_determinism(self):
        f = lambda x: np.cos(7 * x) / (1.0 + x**2)
        a = integrate(f, 0.0, 5.0)
        b = integrate(f, 0.0, 5.0)
        assert a == b


class TestFailSafe:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > 0.3, bad, x)

        with pytest.raises(QuadratureError):
            integrate(f, 0.0, 1.0)
        assert len(calls) == 1

    def test_panel_cap_stops_runaway_refinement(self):
        # the bump's flat tails have panel values far below any relative
        # floor, so a tolerance of 1e-300 can never be met there
        phi = mollifier(2, 2)
        evals = []

        def f(x):
            evals.append(x.size)
            return phi(x)

        with pytest.raises(QuadratureError):
            integrate(f, *phi.support, tol=1e-300)
        # the active panels reach the cap once, far from _MAX_ROUNDS doublings
        assert sum(evals) <= 4 * _MAX_ACTIVE_PANELS * GAUSS_ORDER

    def test_tight_but_reachable_tolerance_still_converges(self):
        v = integrate(np.cos, 0.0, 1.0, tol=1e-15)
        assert abs(v.real - math.sin(1.0)) < 1e-15

    def test_round_limit_accepts_a_small_residual(self):
        # a step off every panel edge keeps one panel short of tolerance in
        # every round; after the last round its width, about 2^-44, is the
        # residual, far below 1e3 * tol, so the panels are kept
        jump = 1.0 / math.sqrt(2.0)
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > jump, 1.0, 0.0)

        v = integrate(f, 0.0, 1.0)
        assert abs(v.real - (1.0 - jump)) <= 1e-15
        assert len(calls) == _MAX_ROUNDS

    def test_round_limit_rejects_a_large_residual(self):
        # the integral of x^-0.9 over the panel at 0 shrinks only like
        # width^0.1, so the rounds run out with a residual above 1e3 * tol
        calls = []

        def f(x):
            calls.append(x.size)
            return x ** -0.9

        with pytest.raises(QuadratureError, match="stalled"):
            integrate(f, 0.0, 1.0)
        assert len(calls) == _MAX_ROUNDS

    def test_seeded_panels_over_the_cap_rejected_before_any_evaluation(self):
        calls = []
        edges = np.linspace(0.0, 1.0, (1 << 15) + 2)[1:-1]
        with pytest.raises(ValueError, match="seeded panels"):
            integrate(lambda x: calls.append(x) or np.sin(x), 0.0, 1.0,
                      breakpoints=edges)
        assert calls == []


def _two_call_panel_integrals(f, a, b, tol, breakpoints=()):
    """Reference: the round loop that evaluates the whole seeded panels in
    one call and each round's left and right halves in two more.  Returns
    the sorted panels and the number of rounds."""
    total_width = b - a
    edges = np.array(sorted({a, b, *(float(p) for p in breakpoints if a < p < b)}))
    lo, hi = edges[:-1], edges[1:]
    whole = _panel_values(f, lo, hi).astype(complex)
    accepted = []
    for rounds in range(1, _MAX_ROUNDS + 1):
        mid = 0.5 * (lo + hi)
        left = _panel_values(f, lo, mid).astype(complex)
        right = _panel_values(f, mid, hi).astype(complex)
        refined = left + right
        err = np.abs(whole - refined)
        budget = np.maximum(tol * (hi - lo) / total_width,
                            _REL_FLOOR * np.abs(refined))
        ok = err <= budget
        accepted.append((lo[ok], refined[ok]))
        bad = ~ok
        if not bad.any():
            break
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        whole = np.concatenate([left[bad], right[bad]])
    else:
        assert float(np.sum(np.abs(whole))) <= 1e3 * tol
        accepted.append((lo, whole))
    lo, values = (np.concatenate(v) for v in zip(*accepted))
    order = np.argsort(lo)
    return lo[order], values[order], rounds


def _fejer_32(x):
    return -(np.sin(16.0 * x) / np.sin(0.5 * x)) ** 2


_EPS_LADDER = [0.5 * 0.5**j for j in range(10)]
_BUMP = mollifier(2, 1).dilated(16.0).shifted(1.0 / 16.0)


class TestOneCallPerRound:
    """The batched loop evaluates the same panels as the two-call loop; a
    panel's value may differ in its last bits, by where its row sits in
    the batch."""

    @pytest.mark.parametrize("f, a, b, breakpoints, tol", [
        (lambda x: np.cos(7 * x) / (1.0 + x**2), 0.0, 5.0, (), 1e-10),
        (lambda x: _BUMP(x) * alternating_kernel(x), 0.0, 0.125, (), 1e-10),
        # runs out of rounds with a residual of about 2^-44
        (lambda x: np.where(x > 1.0 / math.sqrt(2.0), 1.0, 0.0), 0.0, 1.0, (),
         1e-10),
        (_fejer_32, _EPS_LADDER[-1], math.pi,
         [*_EPS_LADDER, *np.arange(6.0 / 32, math.pi, 6.0 / 32)], 1e-10),
        # runs out of rounds with a residual of about 2^-21, kept below 1e3 tol
        (lambda x: x**-0.5, 0.0, 1.0, (), 1e-6),
    ], ids=["cos7x", "bump-kernel", "step", "fejer-32", "inverse-sqrt"])
    def test_matches_the_two_call_loop(self, f, a, b, breakpoints, tol):
        ref_lo, ref_values, rounds = _two_call_panel_integrals(f, a, b, tol,
                                                               breakpoints)
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        lo, values = panel_integrals(counted, a, b, tol=tol,
                                     breakpoints=breakpoints)
        assert np.array_equal(lo, ref_lo)
        for part in (np.real, np.imag):
            assert (np.abs(part(values) - part(ref_values))
                    <= 4 * np.spacing(np.abs(part(ref_values)))).all()
        assert len(calls) == rounds


def _rows(*fs):
    return lambda x: np.stack([f(x) for f in fs])


class TestRows:
    """An integrand returning (rows, nodes) shares one panel layout: a panel
    is bisected when any row misses its budget."""

    def test_two_rows_match_two_scalar_calls_when_layouts_agree(self):
        f1 = lambda x: np.sin(40 * x) / (1.0 + x)
        f2 = lambda x: np.cos(40 * x) / (1.0 + x)
        lo1, v1 = panel_integrals(f1, 0.0, 3.0, breakpoints=(1.0,))
        lo2, v2 = panel_integrals(f2, 0.0, 3.0, breakpoints=(1.0,))
        assert lo1.size > 2 and np.array_equal(lo1, lo2)  # bisected alike
        lo, values = panel_integrals(_rows(f1, f2), 0.0, 3.0, breakpoints=(1.0,))
        assert values.shape == (2, lo.size)
        assert np.array_equal(lo, lo1)
        assert np.array_equal(values[0], v1) and np.array_equal(values[1], v2)

    def test_a_panel_is_bisected_when_one_row_misses_its_budget(self):
        step = lambda x: np.where(x > 1.0 / math.sqrt(2.0), 1.0, 0.0)
        smooth_lo, _ = panel_integrals(np.cos, 0.0, 1.0)
        step_lo, step_values = panel_integrals(step, 0.0, 1.0)
        assert smooth_lo.size == 1 and step_lo.size > 40
        lo, values = panel_integrals(_rows(np.cos, step), 0.0, 1.0)
        assert np.array_equal(lo, step_lo)
        assert np.array_equal(values[1], step_values)
        assert abs(math.fsum(values[0]) - math.sin(1.0)) < 1e-15

    def test_a_non_finite_row_raises(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.stack([np.cos(x), np.where(x > 0.3, math.nan, x)])

        with pytest.raises(QuadratureError):
            panel_integrals(f, 0.0, 1.0)
        assert len(calls) == 1

    def test_the_stall_residual_is_the_worst_rows(self):
        # x^-0.9 runs out of rounds; doubling it doubles the residual
        g = lambda x: x ** -0.9
        with pytest.raises(QuadratureError) as worst:
            panel_integrals(lambda x: 2.0 * g(x), 0.0, 1.0)
        with pytest.raises(QuadratureError) as rows:
            panel_integrals(_rows(g, lambda x: 2.0 * g(x), g), 0.0, 1.0)
        assert "stalled" in str(rows.value)
        assert str(rows.value) == str(worst.value)

    def test_panels_keep_the_integrands_dtype(self):
        _, real = panel_integrals(np.cos, 0.0, 1.0)
        _, cplx = panel_integrals(lambda x: np.exp(1j * x), 0.0, 1.0)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        for f in (np.cos, lambda x: np.exp(1j * x)):
            assert type(integrate(f, 0.0, 1.0)) is complex
        assert integrate(np.cos, 0.0, 1.0).imag == 0.0

