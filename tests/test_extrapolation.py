"""Richardson extrapolation, divergence detection and the ladder record."""

import cmath
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsum.extrapolation import (
    MAX_LEVELS,
    EpsilonLimit,
    _scale_limit,
    detect_divergence,
    divergent_ladder,
    extrapolate_ladder,
    fit_power_growth,
    richardson_extrapolate,
)


def eps_ladder(levels):
    return [0.5 * 2.0**-j for j in range(levels)]


class TestRichardson:
    def test_first_order(self):
        hs = eps_ladder(10)
        values = [3.0 + 2.0 * h + 0.7 * h**3 for h in hs]
        est, err, converged = richardson_extrapolate(values, 1)
        assert converged
        assert abs(est - 3.0) < 1e-12

    def test_odd_powers_only(self):
        hs = eps_ladder(10)
        values = [-1.5 + 0.3 * h + 0.2 * h**3 - h**5 for h in hs]
        est, _, converged = richardson_extrapolate(values, 1)
        assert converged
        assert abs(est + 1.5) < 1e-12

    def test_even_powers_only(self):
        # the m-ladder shape: expansion in 1/m^2, 1/m^4, ...
        hs = eps_ladder(8)
        values = [0.25 - 0.4 * h**2 + 1.1 * h**4 for h in hs]
        est, _, converged = richardson_extrapolate(values, 2)
        assert converged
        assert abs(est - 0.25) < 1e-12

    def test_constant_ladder(self):
        est, err, converged = richardson_extrapolate([0.5] * 8, 1)
        assert converged
        assert est == 0.5

    def test_zero_ladder(self):
        est, _, converged = richardson_extrapolate([0.0] * 6, 2)
        assert converged
        assert est == 0.0

    def test_complex_values(self):
        hs = eps_ladder(9)
        values = [(1 - 2j) + (0.5 + 0.25j) * h + 0.1j * h**3 for h in hs]
        est, _, converged = richardson_extrapolate(values, 1)
        assert converged
        assert abs(est - (1 - 2j)) < 1e-12

    def test_noisy_tail_does_not_blow_up(self):
        rnd = [1e-13, -2e-13, 5e-14, -8e-14, 1e-13, -5e-14, 3e-14, -2e-14, 1e-14, -3e-14]
        hs = eps_ladder(10)
        values = [2.0 + 0.8 * h + noise for h, noise in zip(hs, rnd)]
        est, err, converged = richardson_extrapolate(values, 1)
        assert abs(est - 2.0) < 1e-10
        assert converged

    def test_non_contracting_flagged(self):
        values = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        _, _, converged = richardson_extrapolate(values, 1)
        assert not converged

    @pytest.mark.parametrize("values", [
        [1.0], [1.0, 1.0], [0.25 + 2e-9, 0.25 + 1e-9], [2.0 + 1j, 3.0 - 1j],
    ])
    def test_fewer_than_three_samples_never_converge(self, values):
        # two samples leave one correction and nothing to judge it by
        est, err, converged = richardson_extrapolate(values, 1)
        assert (est, err, converged) == (complex(values[-1]), math.inf, False)

    def test_empty_ladder_raises(self):
        with pytest.raises(ValueError, match="empty"):
            richardson_extrapolate([], 1)

    @pytest.mark.parametrize("values", [
        [1.0, 2.0, 3.0, math.inf], [1.0, 2.0, math.inf, 4.0],
        [1.0, 2.0, 3.0, math.nan], [1.0, 2.0, 3.0, -math.inf],
        [complex(1, math.inf), 2.0, 3.0, 4.0],
        # finite samples whose tableau overflows count as non-finite too
        [1e308, -1e308, 1e308, -1e308],
        # and so do finite complex samples whose magnitudes, or those of
        # their differences, pass the float range; abs() raised
        # OverflowError on both
        [complex(1.7e308, 1.7e308)] * 3,
        [1.3e308, complex(0, -1.3e308), 1.3e308],
    ])
    def test_non_finite_sample_never_converges(self, values):
        # an infinite sample made the noise floor infinite: [1, 2, 3, inf]
        # gave (inf, inf, True) and [1, 2, inf, 4] gave (4, inf, True)
        est, err, converged = richardson_extrapolate(values, 1)
        assert (err, converged) == (math.inf, False)
        assert est == complex(values[-1]) or math.isnan(abs(est))
        # the record's JSON writes every infinity and nan as null
        rec = extrapolate_ladder(eps_ladder(len(values)), values, 1)
        obj = json.loads(json.dumps(rec.to_json_obj(), allow_nan=False))
        assert (obj["error_estimate"], obj["converged"]) == (None, False)
        want = [complex(v) for v in values] + [rec.extrapolated]
        got = obj["samples"] + [obj["extrapolated"]]
        for v, z in zip(want, got):
            assert (z["re"], z["im"]) == tuple(
                x if math.isfinite(x) else None for x in (v.real, v.imag))

    @pytest.mark.parametrize("first_order", [0, -1])
    def test_first_order_below_one_raises(self, first_order):
        # 0 divided by 2**0 - 1 and -1 reported a converged estimate
        with pytest.raises(ValueError, match="first_order must be >= 1"):
            richardson_extrapolate([1.5, 1.25, 1.125, 1.0625], first_order)


class TestScaleLimit:
    def test_growing_ladder_is_divergent(self):
        scales = [1, 2, 4, 8]
        assert _scale_limit(scales, [3.0 * m for m in scales]) == divergent_ladder(
            scales, [3.0 * m for m in scales])

    def test_ladder_in_inverse_squares_is_extrapolated(self):
        scales = [2, 4, 8, 16, 32]
        values = [0.25 + 1.0 / m**2 for m in scales]
        limit = _scale_limit(scales, values)
        assert limit == extrapolate_ladder(scales, values, first_order=2)
        assert limit.converged and abs(limit.extrapolated - 0.25) < 1e-12


class TestDivergence:
    def test_detect_growth(self):
        assert detect_divergence([1.0, 2.1, 4.4, 9.0])
        assert not detect_divergence([1.0, 1.2, 1.3, 1.35])
        # growth is judged on finite magnitudes only
        assert not detect_divergence([1.0, 2.1, 4.4, math.inf])
        # and from above the noise floor: samples of jump:sign at p = 4 that
        # are rounding noise once grew like this, and read as divergent
        noise = [7e-21, 1e-19, 3e-18, 9e-18, 2.8e-17]
        assert not detect_divergence(noise)
        rec = _scale_limit([2, 4, 8, 16, 32], noise)
        assert rec.converged and rec.error_estimate == 5e-14
        # the floor is not relative to the last sample, which would hide
        # this growth: exp(32) is below 5e-14 exp(64)
        assert detect_divergence([math.exp(m) for m in (2, 4, 8, 16, 32, 64)])

    def test_magnitude_past_the_float_range_is_not_divergent(self):
        # abs() of this finite sample raised OverflowError; it counts as a
        # non-finite one, so the scale ladder is extrapolated, unconverged
        scales, values = [2, 4, 8, 16], [1.0, 2.1, 4.4, complex(1.7e308, 1.7e308)]
        assert not detect_divergence(values)
        assert _scale_limit(scales, values) == extrapolate_ladder(
            scales, values, first_order=2)

    def test_fit_exponent(self):
        ms = [2, 4, 8, 16, 32]
        values = [-3.0 * m**2 for m in ms]
        assert abs(fit_power_growth(ms, values) - 2.0) < 1e-12

    @pytest.mark.parametrize("params", [
        [1, 1], [2, 4, 4], [0, 1], [-1, 1], [1, math.inf], [math.nan, 1],
        [1e300, math.nextafter(1e300, math.inf)]])
    def test_fit_needs_distinct_positive_parameters(self, params):
        # the fit needs distinct logarithms: two distinct parameters with
        # one logarithm are as bad as [1, 1]
        with pytest.raises(ValueError, match="distinct, finite parameters > 0"):
            fit_power_growth(params, [1.0 + j for j in range(len(params))])

    def test_fit_needs_two_nonzero_samples(self):
        # one nonzero sample, at distinct parameters: the other message
        with pytest.raises(ValueError, match="^need at least two nonzero samples"):
            fit_power_growth([1, 2, 4], [0, 0, 1])

    def test_growth_is_fitted_over_the_run_that_diverges(self):
        # the last three samples grow by >= 1.5x, and the fit sees only them:
        # over all four the huge first sample gave an exponent of -298.4
        rec = _scale_limit([2, 4, 8, 16], [1e300, 1.0, 2.0, 3.0])
        assert rec.growth_exponent == fit_power_growth([4, 8, 16], [1.0, 2.0, 3.0])
        assert 0.79 < rec.growth_exponent < 0.8

    def test_growth_fit_keeps_at_most_five_samples(self):
        ms = [2.0 * 2**j for j in range(8)]
        values = [m**3 for m in ms]
        assert divergent_ladder(ms, values).growth_exponent == fit_power_growth(
            ms[-5:], values[-5:])
        values[4] = 1.0  # the growing run is now the last four samples
        assert divergent_ladder(ms, values).growth_exponent == fit_power_growth(
            ms[-4:], values[-4:])

    def test_divergent_ladder_record(self):
        ms = [2, 4, 8, 16]
        values = [5.0 * m for m in ms]
        rec = divergent_ladder(ms, values)
        assert not rec.converged
        assert rec.extrapolated is None
        assert abs(rec.growth_exponent - 1.0) < 1e-12


class TestEpsilonLimitRecord:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            EpsilonLimit(
                samples=((1.0, 0j), (3.0, 0j), (2.0, 0j)),
                extrapolated=0j,
                error_estimate=0.0,
                converged=True,
            )

    def test_every_constructor_checks_monotonicity(self):
        rec = extrapolate_ladder([0.5, 0.25, 0.125], [1.0, 1.0, 1.0], 1)
        bad = ((1.0, 0j), (3.0, 0j), (2.0, 0j))
        with pytest.raises(ValueError, match="strictly monotone"):
            rec._replace(samples=bad)
        with pytest.raises(ValueError, match="strictly monotone"):
            EpsilonLimit._make((bad, 0j, 0.0, True, None))
        assert rec._replace(converged=False).converged is False

    def test_record_equals_the_tuple_of_its_fields(self):
        rec = divergent_ladder([2, 4, 8], [1.0, 4.0, 16.0])
        assert rec == (rec.samples, None, math.inf, False, rec.growth_exponent)
        assert EpsilonLimit((), None, math.inf, False).growth_exponent is None

    def test_error_estimate_dominates_last_correction(self):
        hs = eps_ladder(8)
        values = [1.0 + h + h**3 for h in hs]
        rec = extrapolate_ladder(hs, values, 1)
        assert rec.converged
        assert rec.error_estimate >= 0.0
        assert abs(rec.extrapolated - 1.0) <= max(rec.error_estimate, 1e-11)

    def test_json_round_trip(self):
        hs = eps_ladder(4)
        rec = extrapolate_ladder(hs, [0.25 + 0.5 * h for h in hs], 1)
        obj = rec.to_json_obj()
        parsed = json.loads(json.dumps(obj))
        assert parsed["converged"] is True
        assert abs(parsed["extrapolated"]["re"] - 0.25) < 1e-12
        assert len(parsed["samples"]) == 4
        assert parsed["growth_exponent"] is None

    def test_json_divergent_has_null_extrapolant(self):
        rec = divergent_ladder([2, 4, 8], [1.0, 4.0, 16.0])
        obj = json.loads(json.dumps(rec.to_json_obj()))
        assert obj["extrapolated"] is None
        assert obj["error_estimate"] is None
        assert abs(obj["growth_exponent"] - 2.0) < 1e-9

    @pytest.mark.parametrize("hs", [[], [0.5], [0.5, 0.25]])
    def test_short_ladder_record(self, hs):
        rec = extrapolate_ladder(hs, [0.25 + h for h in hs], 1)
        assert rec.samples == tuple((h, complex(0.25 + h)) for h in hs)
        assert rec.extrapolated == (rec.samples[-1][1] if hs else None)
        assert rec.error_estimate == math.inf
        assert not rec.converged
        assert rec.growth_exponent is None

    def test_csv_rows(self):
        hs = eps_ladder(3)
        rec = extrapolate_ladder(hs, [complex(1, -h) for h in hs], 1)
        rows = rec.to_csv_rows()
        assert len(rows) == 3
        assert rows[0][0] == "0.5"


# a ladder of any length up to MAX_LEVELS takes well under a millisecond
TIME_BOUND_S = 1.0
_SAMPLES = st.lists(
    st.one_of(st.floats(), st.complex_numbers(), st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 5e-324])),
    max_size=MAX_LEVELS)
LADDERS = {
    "epsilon": lambda values: extrapolate_ladder(
        eps_ladder(len(values)), values, 1),
    "scale": lambda values: _scale_limit(
        [2.0 * 2**j for j in range(len(values))], values),
}


@pytest.mark.parametrize("kind", sorted(LADDERS))
@settings(max_examples=300, deadline=None)
@given(values=_SAMPLES)
@example(values=[1e300, 1.0, 2.0, 3.0])  # a divergent tail after a huge sample
def test_any_samples_give_one_outcome(kind, values):
    """Samples with nan, +-inf, +-1e308 and complex parts up to the float
    range (whose magnitudes may pass it) give a ValueError or a record
    that is finite, unconverged with an infinite estimate, or divergent with
    a finite exponent; its JSON form holds no NaN or Infinity."""
    start = time.perf_counter()
    try:
        rec = LADDERS[kind](values)
    except ValueError:
        rec = None
    assert time.perf_counter() - start < TIME_BOUND_S, values
    if rec is None:
        return
    json.dumps(rec.to_json_obj(), allow_nan=False)
    if rec.growth_exponent is not None:
        assert rec.extrapolated is None and not rec.converged
        assert math.isfinite(rec.growth_exponent), values
        assert rec.growth_exponent > 0, values  # the fitted run grows
    elif rec.error_estimate == math.inf:
        assert not rec.converged, values
    else:  # a non-finite sample would have left the estimate infinite
        assert all(cmath.isfinite(v) for _, v in rec.samples), values
        assert math.isfinite(rec.error_estimate), values
        assert cmath.isfinite(rec.extrapolated), values


# parameters of every kind a caller passes: repeats from a small pool,
# nan, +-inf, numpy float64 and ints
_PARAMS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1, 2, math.nan, math.inf, -math.inf]),
        st.floats(),
        st.floats(allow_nan=False).map(np.float64),
        st.integers(-4, 4)),
    max_size=8)


@settings(max_examples=300, deadline=None)
@given(params=_PARAMS, order=st.sampled_from([None, "up", "down"]),
       data=st.data())
def test_record_of_drawn_parameters(params, order, data):
    """A record accepts exactly the strictly increasing or decreasing
    parameter lists, and its samples are the (float, complex) pairs of the
    parameters and values."""
    if order is not None:
        params = sorted(params, reverse=order == "down")
    pairs = list(zip(params, params[1:]))
    monotone = all(a < b for a, b in pairs) or all(a > b for a, b in pairs)
    try:
        EpsilonLimit(tuple((p, 0j) for p in params), None, math.inf, False)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == monotone, params
    values = data.draw(st.lists(
        st.one_of(st.floats(), st.integers(-4, 4), st.complex_numbers()),
        min_size=len(params), max_size=len(params)))
    try:
        rec = extrapolate_ladder(params, values, 1)
    except ValueError:
        assert not monotone, params
        return
    expected = tuple((float(p), complex(v)) for p, v in zip(params, values))
    # repr, so that a nan sample compares equal to itself
    assert repr(rec.samples) == repr(expected), (params, values)
