"""Numerical realization of the singular kernels, combs and limit processes.

Two 2*pi-periodic kernels drive everything here.  Around t = 0 the
alternating-series kernel is smooth and evaluates as

    e^{it} / (1 + e^{it})^2  =  1 / (4 cos^2(t/2)),

an algebraic identity (expand (1 + e^{it})^2 = 4 e^{it} cos^2(t/2)); its
poles sit at odd multiples of pi.  Shifting a pole to the origin turns the
same kernel into 1 / (4 sin^2(x/2)), and the all-plus kernel obeys

    e^{ix} / (1 - e^{ix})^2  =  -1 / (4 sin^2(x/2)).

The centered real forms are used inside quadrature because the naive
complex quotients lose precision to cancellation in 1 + e^{it} near a
pole; they are exactly equal, not approximations.

Finite-part pairings are evaluated through two independent routes: the
truncated-window route with the 1/tan(eps/2) counterterm followed by
extrapolation in eps, and the remainder route

    minus the integral over one period cell of log|sin(x/2)| phi''(p + x) dx

which needs no limit process at all.  Their agreement is a library-level
invariant.  About a pole p the kernel is K(x) = 1/(4 sin^2(x/2)), which is
-(log|sin(x/2)|)''.  Integrating the truncated integral of K(x) phi(p + x)
by parts twice leaves this absolutely convergent integral: the boundary
terms at +-eps cancel the counterterm as eps -> 0, and those at the cell
edges vanish, where cot(pi/2) = 0 and log sin(pi/2) = 0, so phi need not
vanish there.  One adaptive quadrature per cell evaluates it in u with
x = u|u|, which turns the log singularity at the pole into the continuous
2|u| log|sin(x/2)|.

On the halving ladder eps = 1/2, 1/4, ... the truncated windows are nested,
and the window (-pi, -eps) u (eps, pi) is symmetric about the pole, so the
counterterm route and the Fourier coefficients c_n share one ladder pass
over the even fold g(x) = f(x) + f(-x) on (0, pi].  A single adaptive
quadrature of g, with every eps a breakpoint, yields panels that never
straddle a ladder point; each sample is the correctly rounded sum of the
panels to the right of its eps.  Bisection grades the panels toward the
pole, and the absolute tolerance is shared over the whole pass: a sample's
quadrature error budget is one tolerance, not one per level.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .extrapolation import (
    EpsilonLimit,
    detect_divergence,
    divergent_ladder,
    extrapolate_ladder,
)
from .mollifiers import Mollifier, TestFunction
from .quadrature import TOLERANCE, integrate, panel_integrals, panel_sum

__all__ = [
    "alternating_kernel",
    "centered_kernel",
    "finite_part_action",
    "finite_part_action_epsilon",
    "alternating_series_action",
    "all_plus_series_action",
    "fourier_coefficient_numeric",
    "mollified_limit",
    "jump_average",
    "dirichlet_comb_growth",
    "dirichlet_comb_ladder",
    "DEFAULT_EPS_LEVELS",
    "MAX_LEVELS",
]

PERIOD = 2.0 * math.pi
DEFAULT_EPS_LEVELS = 10
DEFAULT_SCALE_LEVELS = 10
# deepest ladder.  The c_n samples integrate a bounded Fejer form, so their
# ladders miss by at most 1e-13 from 10 to 20 levels.  The counterterm
# route still cancels against phi(pi)/tan(eps/2) and loses about one bit
# per level: unit bumps at the pole miss by up to 1e-12 at 10 levels and
# 1e-9 at 20.  The scale ladders share the bound, which also caps their
# list of m = 2^j before the first sample.
MAX_LEVELS = 20
EPS_TOP = 0.5
_EPS_LADDER = [EPS_TOP * 0.5**j for j in range(MAX_LEVELS)]
# symmetric eps-windows drop the odd part: remainders run in eps, eps^3, ...
_EPS_FIRST_ORDER = 1

# a pole closer than this to the integration region forces the
# remainder-form route; farther away the kernel is integrated directly
_SINGULAR_MARGIN = 0.25

# tolerance of the remainder route relative to max|phi''|, probed at
# _PROBE_POINTS even steps over the support in the cell, times that span;
# at an absolute 1e-10 narrow features stall on rounding: an affine p = 4
# bump of half-width 0.001 with the pole 1e-5 outside it, and a half-width
# 0.01 bump built from plain callables inside one of width 2 (see
# _remainder_cell_action)
_REMAINDER_REL_TOL = 1e-12
_PROBE_POINTS = 513
# breakpoints 0 and +-2^-k in u = sign(x) sqrt|x| grade the remainder
# route's panels toward the pole in its first round; going past k = 24
# saves no round on the benchmark's cells or on bumps of half-width 0.001
_POLE_GRADING = (0.0, *(s * 0.5**k for k in range(1, 25) for s in (1.0, -1.0)))

_MAX_FOURIER_INDEX = 32

# a period cell costs 0.25 to 0.38 ms on a 2-vCPU Intel Xeon (mean over the
# benchmark's alternating-series cells, best of five passes, six runs) and
# the benchmark's widest support spans 4 periods; 1e299 cells (a bump
# dilated by 1e-300) would hang
_MAX_CELLS = 1024
# 2*pi to 60 significant digits, off by under 1e-59: reducing a shift s by
# it is off by under 1e-59 s / (2*pi), under 1e-30 at _MAX_SHIFT
_TWO_PI = "6.28318530717958647692528676655900576839433879875021164194989"
_MAX_SHIFT = 1e30


def alternating_kernel(t):
    """1 / (4 cos^2(t/2)); poles at odd multiples of pi."""
    t = np.asarray(t, dtype=float)
    return 0.25 / np.cos(0.5 * t) ** 2


def centered_kernel(x):
    """The same kernel with a pole shifted to x = 0: 1 / (4 sin^2(x/2))."""
    x = np.asarray(x, dtype=float)
    return 0.25 / np.sin(0.5 * x) ** 2


def _support(phi: TestFunction) -> tuple:
    sa, sb = phi.support
    if not -math.inf < sa < sb < math.inf:
        raise ValueError("test function support must be finite and non-empty")
    return float(sa), float(sb)


def _check_levels(levels: int, least: int = 3) -> None:
    """The depth rule of every public ladder: least <= levels <= MAX_LEVELS."""
    if levels < least:
        raise ValueError(f"levels must be >= {least}")
    if levels > MAX_LEVELS:
        raise ValueError(f"levels must be <= {MAX_LEVELS}")


def _period_support(phi: TestFunction) -> tuple:
    sa, sb = _support(phi)
    if not (0.0 < sa and sb < PERIOD):
        raise ValueError("support must lie inside (0, 2*pi)")
    return sa, sb


# ---------------------------------------------------------------------------
# Remainder route: the finite part integrated by parts twice


def _remainder_cell_action(phi: TestFunction, sa: float, sb: float,
                           pole: float) -> complex:
    """Finite-part pairing over the period cell [pole - pi, pole + pi]:
    minus the integral of log|sin(x/2)| phi''(pole + x) over the cell, for
    phi supported in the checked (sa, sb).

    Valid for any C^2 function on the closed cell; phi need not vanish at
    the cell edges.  With x = u|u| the integrand is
    -2|u| log|sin(x/2)| phi''(pole + x), whose error on a panel at the pole
    shrinks like its width squared and so meets the width-proportional
    budget; in x the log alone never does.
    """
    lo, hi = max(sa - pole, -math.pi), min(sb - pole, math.pi)
    if not hi > lo:
        return 0j
    d2 = phi.local(pole, 2)
    # a narrow feature has a large phi'' (up to 1.6e8 on an affine p = 4 bump
    # of half-width 0.001), whose rounding alone leaves panels short of an
    # absolute 1e-10; a base given by plain callables (a sum of bumps, say)
    # also sees pole + x, so its phi'' has noise near |phi'''| ulp(pole):
    # the integral is asked for relative to the size of phi''
    scale = float(np.max(np.abs(d2(np.linspace(lo, hi, _PROBE_POINTS))))) * (hi - lo)
    tol = max(TOLERANCE, _REMAINDER_REL_TOL * scale)

    def f(u):
        # no node lands on u = 0, a breakpoint
        x = u * np.abs(u)
        return -2.0 * np.abs(u) * np.log(np.abs(np.sin(0.5 * x))) * d2(x)

    # the panels start graded toward the pole and at phi's own grading
    ua, ub, *grading = (math.copysign(math.sqrt(abs(v)), v)
                        for v in (lo, hi, *(b - pole for b in phi.breakpoints)))
    return integrate(f, ua, ub, tol=tol, breakpoints=(*_POLE_GRADING, *grading))


def finite_part_action(phi: TestFunction) -> complex:
    """Finite-part pairing over (0, 2*pi) via the remainder route: minus the
    integral of log|sin(x/2)| phi''(pi + x) over (-pi, pi)."""
    return _remainder_cell_action(phi, *_period_support(phi), math.pi)


# ---------------------------------------------------------------------------
# Truncated-window route


def _eps_limit(g, finish, lo: float, hi: float, cuts, eps_list) -> EpsilonLimit:
    """Extrapolate finish(eps, integral of g over (eps, pi) intersected
    with (lo, hi)) over eps_list, a run of _EPS_LADDER.

    g is the even fold f(x) + f(-x) of an integrand f about the pole, and
    vanishes outside (lo, hi).  It is integrated once, over (eps_last, hi)
    clipped to (lo, hi), with every eps and every cut a breakpoint; the
    panels come back sorted, so a sample reads the sum of the panels whose
    left edge is at least its eps.  extrapolate_ladder decides the outcome:
    a run of fewer than 3 samples comes back unconverged.
    """
    samples = []
    if eps_list:
        a = min(max(eps_list[-1], lo), hi)
        left, values = panel_integrals(g, a, hi,
                                       breakpoints=[*eps_list, *cuts])
        for eps, k in zip(eps_list, np.searchsorted(left, eps_list).tolist()):
            samples.append(finish(eps, panel_sum(values[k:])))
    return extrapolate_ladder(eps_list, samples, _EPS_FIRST_ORDER)


def finite_part_action_epsilon(phi: TestFunction,
                               levels: int = DEFAULT_EPS_LEVELS) -> EpsilonLimit:
    """Finite-part pairing over (0, 2*pi) via the counterterm route.

    Samples the truncated integral minus phi(pi)/tan(eps/2) on a halving
    epsilon ladder and extrapolates.  When the pole lies inside the
    support, the ladder starts at the first eps below the distance delta
    from the pole to the nearer support edge: phi is smooth but not
    analytic at its edges, so the samples follow a power series in eps
    only below delta.  When the pole is not inside the support (on an edge
    or outside it), delta is instead the support's far extent about the
    pole: a sample with eps beyond it sees no support at all.  If fewer
    than 3 levels fit below delta within MAX_LEVELS, the ladder is
    reported unconverged.
    """
    sa, sb = _period_support(phi)
    _check_levels(levels)
    f = phi.local(math.pi)
    at_pole = float(f(np.zeros(1))[0])
    # signed distances of the support edges from the pole, positive inside
    below, above = math.pi - sa, sb - math.pi
    # g vanishes outside the support's extent in x = |t - pi|
    lo, hi = max(0.0, -below, -above), min(math.pi, max(below, above))
    delta = min(below, above) if below > 0.0 and above > 0.0 else hi

    def g(x):
        return (f(x) + f(-x)) * centered_kernel(x)

    return _eps_limit(g, lambda eps, v: v - at_pole / math.tan(0.5 * eps),
                      lo, hi, (abs(below), abs(above)),
                      [eps for eps in _EPS_LADDER if eps < delta][:levels])


# ---------------------------------------------------------------------------
# The periodized distributions


def _period_reduced(phi: TestFunction) -> TestFunction:
    """phi with its shift reduced modulo 2*pi into [-pi, pi], exactly
    before the one rounding to float; shifts past _MAX_SHIFT raise.

    Far from 0 the pole n * PERIOD + pi is off the true one by n times the
    2.4e-16 error of PERIOD, and rounds to ulp(n * PERIOD): at a shift of
    1e15 the pairing misses by 0.97.  The distribution is 2*pi-periodic, so
    the pairing is taken at the reduced shift instead."""
    shift = phi.shift
    if not abs(shift) <= _MAX_SHIFT:
        raise ValueError(f"shift must be finite and at most {_MAX_SHIFT:g} in size")
    if round(shift / PERIOD) == 0:
        return phi
    from fractions import Fraction  # only far shifts pay for the import

    s, two_pi = Fraction(shift), Fraction(_TWO_PI)
    return replace(phi, shift=float(s - round(s / two_pi) * two_pi))


def alternating_series_action(phi: TestFunction) -> complex:
    """Pairing with the 2*pi-periodic distribution whose Fourier series is
    e^{it} - 2 e^{2it} + 3 e^{3it} - ...: the periodized finite-part kernel
    plus i*pi times the derivative-of-delta comb at odd multiples of pi.

    Raises ValueError for a shift past 1e30 or a support over 1024 cells.
    """
    phi = _period_reduced(phi)
    sa, sb = _support(phi)
    n = math.floor(sa / PERIOD)
    if math.ceil(sb / PERIOD) - n > _MAX_CELLS:
        raise ValueError(f"support must span at most {_MAX_CELLS} period cells")
    total = 0j
    runs = []  # [lo, hi] of each maximal run of adjacent pole-free cells
    while n * PERIOD < sb:
        cell_lo, cell_hi = n * PERIOD, (n + 1) * PERIOD
        pole = cell_lo + math.pi
        lo, hi = max(sa, cell_lo), min(sb, cell_hi)
        n += 1
        if lo - _SINGULAR_MARGIN <= pole <= hi + _SINGULAR_MARGIN:
            total += _remainder_cell_action(phi, sa, sb, pole)
        elif runs and runs[-1][1] == lo:
            runs[-1][1] = hi  # the kernel is smooth across the cell edge
        else:
            runs.append([lo, hi])
        if lo <= pole <= hi:  # the cell's one pole carries the delta' term
            total += -1j * math.pi * float(phi.deriv(np.array([pole]))[0])
    for lo, hi in runs:
        total += integrate(lambda t: phi(t) * alternating_kernel(t), lo, hi,
                           breakpoints=phi.breakpoints)
    return total


def all_plus_series_action(chi: TestFunction) -> complex:
    """Pairing with the distribution whose Fourier series is
    e^{it} + 2 e^{2it} + 3 e^{3it} + ...

    Requires supp(chi) inside (-pi/2, pi/2) with chi(0) = chi'(0) = 0, so
    the integrand chi(x) * (-1)/(4 sin^2(x/2)) extends continuously and a
    single proper quadrature suffices.
    """
    sa, sb = _support(chi)
    if not (-0.5 * math.pi < sa and sb < 0.5 * math.pi):
        raise ValueError("support must lie inside (-pi/2, pi/2)")
    probe = np.max(np.abs(chi(np.linspace(sa, sb, 65))))
    vanish_tol = 1e-9 * (1.0 + probe)
    at0 = float(chi(np.array([0.0]))[0])
    d_at0 = float(chi.deriv(np.array([0.0]))[0])
    if abs(at0) > vanish_tol or abs(d_at0) > vanish_tol:
        raise ValueError(
            "test function must vanish to second order at 0 "
            f"(got chi(0)={at0:.3e}, chi'(0)={d_at0:.3e})"
        )

    def f(x):
        # 0 is a breakpoint, so no Gauss node lands on the removable 0/0
        x = np.asarray(x, dtype=float)
        return -0.25 * chi(x) / np.sin(0.5 * x) ** 2

    return integrate(f, sa, sb, breakpoints=(0.0, *chi.breakpoints))


# ---------------------------------------------------------------------------
# Fourier coefficients


def fourier_coefficient_numeric(n: int,
                                levels: int = DEFAULT_EPS_LEVELS) -> EpsilonLimit:
    """Numerical Fourier coefficient c_n of the alternating-series
    distribution: the limit of

      (1/2pi) ( integral over the truncated period window of e^{-int} K(t)
                - (-1)^n / tan(eps/2)  -  (-1)^n n pi ).

    Converges to (-1)^{n-1} n for n >= 1 and to 0 for n <= 0.  About the
    pole t = pi the window integral folds to 2 (-1)^n cos(nx) K(x) on
    (eps, pi), and 1/tan(eps/2) is the integral of 2 K there, so the first
    two terms are the integral of the Fejer form
    -(-1)^n (sin(nx/2) / sin(x/2))^2: bounded, real and free of the
    cancellation of cos(nx) - 1 near the pole.
    """
    if abs(n) > _MAX_FOURIER_INDEX:
        raise ValueError(f"|n| must be <= {_MAX_FOURIER_INDEX}")
    if not float(n).is_integer():  # also nan
        raise ValueError("n must be an integer")
    _check_levels(levels, 4)
    sign = -1.0 if n % 2 else 1.0

    def g(x):
        x = np.asarray(x, dtype=float)
        return -sign * (np.sin(0.5 * n * x) / np.sin(0.5 * x)) ** 2

    # pre-split oscillatory panels so the error estimator never aliases
    cuts = []
    if abs(n) >= 4:
        step = 6.0 / abs(n)
        cuts = list(np.arange(step, math.pi, step))

    def finish(eps, v):
        return (v - sign * n * math.pi) / PERIOD

    return _eps_limit(g, finish, 0.0, math.pi, cuts, _EPS_LADDER[:levels])


# ---------------------------------------------------------------------------
# Mollified limits


def _scale_ladder(levels: int, base: int = 2):
    _check_levels(levels)
    return [base * 2**j for j in range(levels)]


def _scale_limit(scales, values) -> EpsilonLimit:
    """A scale ladder's record: divergent, or extrapolated m -> infinity in
    the powers 1/m^2, 1/m^4, ..."""
    if detect_divergence(values):
        return divergent_ladder(scales, values)
    return extrapolate_ladder(scales, values, first_order=2)


def mollified_limit(pairing, vanishing_order: int = 0,
                    levels: int = DEFAULT_SCALE_LEVELS) -> EpsilonLimit:
    """Evaluate pairing(phi_m) on the scale ladder m = 2, 4, 8, ... and
    extrapolate m -> infinity in the powers 1/m^2, 1/m^4, ... of the even
    bumps; an odd power in the pairing stays in the extrapolant.

    Divergent ladders (magnitudes growing by >= 1.5x across the last three
    levels) are reported with the fitted power of m instead of a limit.
    """
    scales = _scale_ladder(levels)
    bump = Mollifier(vanishing_order)
    return _scale_limit(scales, [complex(pairing(bump.rescaled(m))) for m in scales])


def jump_average(f, vanishing_order: int = 0,
                 levels: int = DEFAULT_SCALE_LEVELS) -> EpsilonLimit:
    """Mollified value at 0 of the regular distribution of f, on the ladder
    m = 2, 4, 8, ... of the bump of the given vanishing order, with the
    parameters in the order of ``mollified_limit``.  It tends to
    (f(0+) + f(0-)) / 2 in even powers of 1/m when the odd one-sided
    derivatives of f agree at 0 (a step plus an even part: Heaviside, sign,
    cos).  A kink at 0, as in exp(t) H(t), leaves a miss of order
    |f'(0+) - f'(0-)| / m that the error estimate does not show.

    The ladder is one kernel pass: in u = m t every pairing is the integral
    of f(u / m) phi(u) over [-1, 1], so one adaptive quadrature with a row
    per m integrates them all on the bump's grading, with the jump at
    u = 0 a panel breakpoint.  f receives the rows raveled into one 1-D
    array.  Every m is a power of 2, so u / m is exact and a sample equals
    the integral of f phi_m over the support of phi_m, to the bit, unless
    another level needed one of its panels bisected.
    """
    scales = _scale_ladder(levels)
    phi = Mollifier(vanishing_order)
    inv_m = np.array([[1.0 / m] for m in scales])

    def kernel(u):
        t = (inv_m * u).ravel()  # f(t) may also be a scalar, as in f(t) * phi(t)
        return np.broadcast_to(f(t), t.shape).reshape(len(scales), -1) * phi.value(u)

    _, panels = panel_integrals(kernel, *phi.support,
                                breakpoints=(0.0, *phi.breakpoints))
    return _scale_limit(scales, [panel_sum(row) for row in panels])


# ---------------------------------------------------------------------------
# Divergence demonstrations


def dirichlet_comb_growth(m: int) -> float:
    """Pairing of the Dirichlet comb sum_n e^{int} with phi_m: 2 pi m phi(0).

    By Poisson summation the comb is 2 pi sum_k delta_{2 pi k}, so the
    pairing is 2 pi sum_k phi_m(2 pi k).  phi_m is supported in
    [-1/m, 1/m], inside (-2 pi, 2 pi) for every m >= 1, so only k = 0
    meets the support and the sum is 2 pi phi_m(0) = 2 pi m phi(0): exactly
    linear in m.  The truncated spectral sum of the bump's transform is the
    independent route, checked against this in the tests.
    """
    if not 1 <= m < math.inf:  # also nan
        raise ValueError("m must be finite and >= 1")
    base = Mollifier(0)  # needs phi(0) > 0, so no vanishing factor
    phi0 = float(base.value(np.array([0.0]))[0])
    return PERIOD * m * phi0


def dirichlet_comb_ladder(levels: int = 8) -> EpsilonLimit:
    """Scale ladder of the comb pairing, m = 1, 2, 4, ..., 2^(levels-1); its
    values 2 pi m phi(0) double at every level, so it is always divergent."""
    scales = _scale_ladder(levels, base=1)
    return _scale_limit(scales, [complex(dirichlet_comb_growth(m)) for m in scales])
