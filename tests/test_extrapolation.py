"""Richardson extrapolation, divergence detection and the ladder record."""

import json
import math

import pytest

from divsum.extrapolation import (
    EpsilonLimit,
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


class TestDivergence:
    def test_detect_growth(self):
        assert detect_divergence([1.0, 2.1, 4.4, 9.0])
        assert not detect_divergence([1.0, 1.2, 1.3, 1.35])

    def test_fit_exponent(self):
        ms = [2, 4, 8, 16, 32]
        values = [-3.0 * m**2 for m in ms]
        assert abs(fit_power_growth(ms, values) - 2.0) < 1e-12

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
