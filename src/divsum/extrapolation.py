"""Limit extrapolation for epsilon- and scale-ladders.

A ladder samples a quantity at parameters halving (epsilon) or doubling
(mollifier scale m) from level to level.  Every ladder in divsum knows the
powers its error runs in, so Richardson elimination removes them in turn,
with no order detection.  The window (-pi, -eps) u (eps, pi) is symmetric
about the pole and discards the odd part of the integrand, which leaves a
remainder in odd powers eps, eps^3, ...; the even bumps phi_m give even
powers 1/m^2, 1/m^4, ...  The caller passes the leading power
``first_order``; stage k eliminates the power ``first_order + 2k``.

Divergent ladders are a reported outcome, not an error: the fitted power
of the parameter is recorded instead of an extrapolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EpsilonLimit",
    "richardson_extrapolate",
    "fit_power_growth",
    "detect_divergence",
    "extrapolate_ladder",
    "divergent_ladder",
]

_NOISE_REL = 5e-14
_CONTRACT_REL = 1e-7
_DIVERGENCE_FACTOR = 1.5
_DIVERGENCE_WINDOW = 3


@dataclass(frozen=True)
class EpsilonLimit:
    """Record of one extrapolated limit process.

    ``samples`` holds (parameter, value) pairs with strictly monotone
    parameters: decreasing for an epsilon-ladder, increasing for a
    scale-ladder.  ``extrapolated`` is None when the ladder diverged, in
    which case ``growth_exponent`` carries the fitted power of the
    parameter, or when the ladder has no sample at all.  A ladder of one or
    two samples is unconverged, with its last sample as the value and an
    infinite ``error_estimate``; otherwise ``error_estimate`` is never below
    the magnitude of the last Richardson correction.
    """

    samples: tuple
    extrapolated: complex | None
    error_estimate: float
    converged: bool
    growth_exponent: float | None = None

    def __post_init__(self):
        params = [p for p, _ in self.samples]
        if len(params) >= 2:
            inc = all(q > p for p, q in zip(params, params[1:]))
            dec = all(q < p for p, q in zip(params, params[1:]))
            if not (inc or dec):
                raise ValueError("ladder parameters must be strictly monotone")

    def to_json_obj(self) -> dict:
        finite_err = math.isfinite(self.error_estimate)
        return {
            "samples": [
                {"parameter": p, "re": v.real, "im": v.imag}
                for p, v in self.samples
            ],
            "extrapolated": None if self.extrapolated is None else {
                "re": self.extrapolated.real,
                "im": self.extrapolated.imag,
            },
            "error_estimate": self.error_estimate if finite_err else None,
            "converged": self.converged,
            "growth_exponent": self.growth_exponent,
        }

    def to_csv_rows(self) -> list:
        return [[repr(float(p)), repr(v.real), repr(v.imag)]
                for p, v in self.samples]


def richardson_extrapolate(values, first_order: int):
    """(estimate, error_estimate, converged) from a ladder whose parameter
    halves or doubles at each level and whose error expansion runs in the
    powers first_order, first_order + 2, ...

    ``values`` are ordered from the coarsest parameter to the finest.  One
    or two samples cannot tell a limit from the first correction, so they
    give (last sample, inf, False); an empty ladder raises ValueError.
    """
    col = [complex(v) for v in values]
    if len(col) == 0:
        raise ValueError("empty ladder")
    if len(col) < 3:
        return col[-1], math.inf, False
    scale = max(1.0, max(abs(v) for v in col))
    noise = _NOISE_REL * scale
    est = col[-1]
    corr_prev = math.inf
    for order in range(first_order, first_order + 2 * (len(col) - 1), 2):
        step = abs(col[-1] - col[-2])
        if len(col) >= 3 and step <= noise:
            # differences at the noise floor: the column has converged
            return col[-1], max(step, noise), True
        factor = 2.0 ** order
        col = [(factor * col[j + 1] - col[j]) / (factor - 1.0)
               for j in range(len(col) - 1)]
        new = col[-1]
        corr = abs(new - est)
        if corr > corr_prev and corr_prev <= 1e-9 * scale:
            # the table has hit its noise-limited accuracy
            break
        est = new
        corr_prev = corr
    err = max(corr_prev, noise * 0.1)
    converged = err <= max(_CONTRACT_REL * scale, 1e-12)
    return est, err, converged


def fit_power_growth(params, values) -> float:
    """Least-squares slope of log|value| vs log(parameter), last 5 samples."""
    pts = [(p, abs(complex(v))) for p, v in zip(params, values) if abs(complex(v)) > 0]
    if len(pts) < 2:
        raise ValueError("need at least two nonzero samples to fit growth")
    pts = pts[-5:]
    xs = [math.log(p) for p, _ in pts]
    ys = [math.log(v) for _, v in pts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def detect_divergence(values) -> bool:
    """Magnitudes growing monotonically by >= _DIVERGENCE_FACTOR across the
    last _DIVERGENCE_WINDOW levels."""
    mags = [abs(complex(v)) for v in values]
    if len(mags) < _DIVERGENCE_WINDOW:
        return False
    tail = mags[-_DIVERGENCE_WINDOW:]
    return all(b >= _DIVERGENCE_FACTOR * a and a > 0
               for a, b in zip(tail, tail[1:]))


def divergent_ladder(params, values) -> EpsilonLimit:
    return EpsilonLimit(
        samples=tuple((float(p), complex(v)) for p, v in zip(params, values)),
        extrapolated=None,
        error_estimate=math.inf,
        converged=False,
        growth_exponent=fit_power_growth(params, values),
    )


def extrapolate_ladder(params, values, first_order: int) -> EpsilonLimit:
    """Assemble an EpsilonLimit from ladder samples (convergent branch).

    Fewer than three samples give an unconverged record with an infinite
    estimate, and an empty ladder one whose ``extrapolated`` is None."""
    est, err, converged = (richardson_extrapolate(values, first_order)
                           if len(values) else (None, math.inf, False))
    return EpsilonLimit(
        samples=tuple((float(p), complex(v)) for p, v in zip(params, values)),
        extrapolated=est,
        error_estimate=err,
        converged=converged,
    )
