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
of the parameter is recorded instead of an extrapolant.  So is a ladder
with a non-finite sample (an infinity or a nan), or a complex one whose
finite parts have a magnitude past the float range: it is never divergent
but unconverged, with its last sample as the value and an infinite error
estimate, and its noise floor comes from finite samples only.  A record's
JSON form writes every infinity and nan as null.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import gt, lt

from ._checks import integer

__all__ = [
    "EpsilonLimit",
    "richardson_extrapolate",
    "fit_power_growth",
    "detect_divergence",
    "extrapolate_ladder",
    "divergent_ladder",
    "DEFAULT_EPS_LEVELS",
    "MAX_LEVELS",
]

DEFAULT_EPS_LEVELS = 10
# deepest ladder of every kind.  The closed-form c_n samples have no
# counterterm: their ladders miss by under 2e-13 from 10 to 20 levels.
# The counterterm route cancels against phi(pi)/tan(eps/2) and loses about
# one bit per level: unit bumps at the pole miss by up to 1e-12 at 10
# levels and 1e-9 at 20.  The scale ladders share the bound, which also
# caps their list of m = 2^j before the first sample.
MAX_LEVELS = 20
EPS_TOP = 0.5
_EPS_LADDER = [EPS_TOP * 0.5**j for j in range(MAX_LEVELS)]
_EPS_FIRST_ORDER = 1  # the symmetric window leaves eps, eps^3, ...

_NOISE_REL = 5e-14
_CONTRACT_REL = 1e-7
_DIVERGENCE_FACTOR = 1.5
_DIVERGENCE_WINDOW = 3


class EpsilonLimit(namedtuple(
        "EpsilonLimit",
        "samples extrapolated error_estimate converged growth_exponent")):
    """Record of one extrapolated limit process.

    ``samples`` holds (parameter, value) pairs with strictly monotone
    parameters: decreasing for an epsilon-ladder, increasing for a
    scale-ladder.  ``extrapolated`` is None when the ladder diverged, in
    which case ``growth_exponent`` carries the fitted power of the
    parameter, or when the ladder has no sample at all.  A ladder of one or
    two samples is unconverged, with its last sample as the value and an
    infinite ``error_estimate``; otherwise ``error_estimate`` is never below
    the magnitude of the last Richardson correction.

    A named tuple, so that no subcommand need import the dataclass module;
    it compares equal to the plain tuple of its fields.
    Every constructor validates, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, samples: tuple, extrapolated: complex | None,
                error_estimate: float, converged: bool,
                growth_exponent: float | None = None):
        params = [p for p, _ in samples]
        later = params[1:]
        if later and not (all(map(gt, later, params))
                          or all(map(lt, later, params))):
            raise ValueError("ladder parameters must be strictly monotone")
        return super().__new__(cls, samples, extrapolated, error_estimate,
                               converged, growth_exponent)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates

    def to_json_obj(self) -> dict:
        """The record in JSON types, with None (null) for every infinity and
        nan, which JSON cannot hold."""
        return {
            "samples": [
                {"parameter": _finite(p), "re": _finite(v.real), "im": _finite(v.imag)}
                for p, v in self.samples
            ],
            "extrapolated": None if self.extrapolated is None else {
                "re": _finite(self.extrapolated.real),
                "im": _finite(self.extrapolated.imag),
            },
            "error_estimate": _finite(self.error_estimate),
            "converged": self.converged,
            "growth_exponent": _finite(self.growth_exponent),
        }

    def to_csv_rows(self) -> list:
        return [[repr(float(p)), repr(v.real), repr(v.imag)]
                for p, v in self.samples]


def _finite(x):
    """x, or None when x is None, an infinity or a nan."""
    return x if x is not None and math.isfinite(x) else None


def richardson_extrapolate(values, first_order: int):
    """(estimate, error_estimate, converged) from a ladder whose parameter
    halves or doubles at each level and whose error expansion runs in the
    powers first_order >= 1, first_order + 2, ...

    ``values`` are ordered from the coarsest parameter to the finest.  One
    or two samples cannot tell a limit from the first correction, and a
    non-finite sample, a finite one whose magnitude passes the float range,
    or a tableau that overflows, leaves no noise floor to judge one by, so
    these give (last sample, inf, False); an empty ladder raises ValueError.
    """
    first_order = integer(first_order, "first_order", 1)
    col = [complex(v) for v in values]
    if len(col) == 0:
        raise ValueError("empty ladder")
    last = col[-1]
    if len(col) < 3 or not all(map(cmath.isfinite, col)):
        return last, math.inf, False
    try:
        scale = max(1.0, *map(abs, col))
        noise = _NOISE_REL * scale
        est = last
        corr_prev = math.inf
        # A real ladder must not run through a float tableau, a shortcut that
        # changes results.  An entry that overflows is inf + nan*j here, and
        # the next column makes it nan, which no check below accepts; a float
        # tableau keeps +-inf, which takes the noise-limited break after a
        # small correction and reports convergence.  Of 200,000 fuzzed real
        # ladders with a converging tail near 1e308 after samples up to the
        # float range, 55 came back converged from a float tableau and
        # unconverged from this one.
        for order in range(first_order, first_order + 2 * (len(col) - 1), 2):
            step = abs(col[-1] - col[-2])
            if len(col) >= 3 and step <= noise:
                # differences at the noise floor: the column has converged
                return col[-1], max(step, noise), True
            factor = 2.0 ** order
            col = [(factor * b - a) / (factor - 1.0) for a, b in zip(col, col[1:])]
            new = col[-1]
            corr = abs(new - est)
            if corr > corr_prev and corr_prev <= 1e-9 * scale:
                # the table has hit its noise-limited accuracy
                break
            est = new
            corr_prev = corr
        err = max(corr_prev, noise * 0.1)
    except OverflowError:
        # abs() of finite parts, of a sample or a tableau entry, past the
        # float range
        err = math.inf
    if not math.isfinite(err):
        # the tableau left the float range: judged as a non-finite sample
        return last, math.inf, False
    converged = err <= _CONTRACT_REL * scale
    return est, err, converged


def fit_power_growth(params, values) -> float:
    """Least-squares slope of log|value| vs log(parameter), last 5 samples;
    the parameters must be distinct, finite and > 0."""
    params = list(params)
    # distinct parameters may still share a logarithm, 1e300 and its successor
    logs = [math.log(p) for p in params if 0 < p < math.inf]
    if len(set(logs)) < len(params):
        raise ValueError("growth fit needs distinct, finite parameters > 0")
    pts = [(x, abs(complex(v))) for x, v in zip(logs, values) if abs(complex(v)) > 0]
    if len(pts) < 2:
        raise ValueError("need at least two nonzero samples to fit growth")
    pts = pts[-5:]
    xs = [x for x, _ in pts]
    ys = [math.log(v) for _, v in pts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def _growing_run(mags) -> int:
    """The number of trailing magnitudes, at most 5, that each are at least
    _DIVERGENCE_FACTOR times the one before them, which is above _NOISE_REL,
    the noise floor of a sample below 1: noise that grows is not divergence."""
    run = 1
    while (run < min(5, len(mags))
           and mags[-run] >= _DIVERGENCE_FACTOR * mags[-run - 1] > _NOISE_REL):
        run += 1
    return run


def detect_divergence(values) -> bool:
    """Finite magnitudes growing monotonically by >= _DIVERGENCE_FACTOR from
    above the noise floor across the last _DIVERGENCE_WINDOW levels.  A
    non-finite sample anywhere leaves the growth unfitted: not divergent."""
    try:
        mags = [abs(complex(v)) for v in values]
    except OverflowError:  # a magnitude past the float range is not finite
        return False
    return all(map(math.isfinite, mags)) and _growing_run(mags) >= _DIVERGENCE_WINDOW


def divergent_ladder(params, values) -> EpsilonLimit:
    """The record of a divergent ladder, its growth fitted over its growing
    run of at most 5 samples, whose last 3 ``detect_divergence`` judges."""
    run = _growing_run([abs(complex(v)) for v in values])
    return EpsilonLimit(
        samples=tuple((float(p), complex(v)) for p, v in zip(params, values)),
        extrapolated=None,
        error_estimate=math.inf,
        converged=False,
        growth_exponent=fit_power_growth(list(params)[-run:], list(values)[-run:]),
    )


def _scale_ladder(levels: int, base: int = 2) -> list:
    """The scale ladder m = base, 2 base, 4 base, ... of ``levels`` levels."""
    return [base * 2**j for j in range(integer(levels, "levels", 3, MAX_LEVELS))]


def _scale_limit(scales, values) -> EpsilonLimit:
    """A scale ladder's record: divergent, or extrapolated m -> infinity in
    the powers 1/m^2, 1/m^4, ..."""
    if detect_divergence(values):
        return divergent_ladder(scales, values)
    return extrapolate_ladder(scales, values, first_order=2)


def extrapolate_ladder(params, values, first_order: int) -> EpsilonLimit:
    """Assemble an EpsilonLimit from ladder samples (convergent branch).

    Fewer than three samples give an unconverged record with an infinite
    error estimate, and an empty ladder one whose ``extrapolated`` is None.
    ``first_order`` is checked for every length, the empty ladder included."""
    first_order = integer(first_order, "first_order", 1)
    est, err, converged = (richardson_extrapolate(values, first_order)
                           if len(values) else (None, math.inf, False))
    return EpsilonLimit(
        samples=tuple(zip(map(float, params), map(complex, values))),
        extrapolated=est,
        error_estimate=err,
        converged=converged,
    )
