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
counterterm route is one ladder pass over the even fold
g(x) = f(x) + f(-x) on (0, pi].  A single adaptive quadrature of g, with
every eps a breakpoint, yields panels that never straddle a ladder point;
each sample is the correctly rounded sum of the panels to the right of its
eps.  Bisection grades the panels toward the pole, and the absolute
tolerance is shared over the whole pass: a sample's quadrature error
budget is one tolerance, not one per level.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import integer, real
# perfbench/ calls and traces these names here; they are not exported
from .coefficients import (  # noqa: F401
    dirichlet_comb_growth,
    dirichlet_comb_ladder,
    fourier_coefficient_numeric,
)
from .extrapolation import (
    _EPS_FIRST_ORDER,
    _EPS_LADDER,
    DEFAULT_EPS_LEVELS,
    MAX_LEVELS,
    EpsilonLimit,
    _scale_ladder,
    _scale_limit,
    extrapolate_ladder,
)
from .mollifiers import Mollifier, TestFunction
from .quadrature import TOLERANCE, QuadratureError, integrate, panel_integrals, panel_sum

__all__ = [
    "alternating_kernel",
    "centered_kernel",
    "finite_part_action",
    "finite_part_action_epsilon",
    "alternating_series_action",
    "all_plus_series_action",
    "mollified_limit",
    "jump_average",
]

PERIOD = math.tau
DEFAULT_SCALE_LEVELS = 10

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

# bounds the period cells scanned for poles; each pole cell costs one
# remainder integral, 0.25 to 0.38 ms on a 2-vCPU Intel Xeon (mean over the
# benchmark's alternating-series cells, best of five passes, six runs), and
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
    d2 = phi._local(pole, 2)
    # a narrow feature has a large phi'' (up to 1.6e8 on an affine p = 4 bump
    # of half-width 0.001), whose rounding alone leaves panels short of an
    # absolute 1e-10; a base given by plain callables (a sum of bumps, say)
    # also sees pole + x, so its phi'' has noise near |phi'''| ulp(pole):
    # the integral is asked for relative to the size of phi''
    scale = float(np.max(np.abs(d2(np.linspace(lo, hi, _PROBE_POINTS))))) * (hi - lo)
    if not math.isfinite(scale):
        raise QuadratureError("phi'' leaves the float range on the cell")
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
    levels = integer(levels, "levels", 3, MAX_LEVELS)
    f = phi._local(math.pi, 0)
    at_pole = float(f(np.zeros(1))[0])
    # signed distances of the support edges from the pole, positive inside
    below, above = math.pi - sa, sb - math.pi
    # g vanishes outside the support's extent in x = |t - pi|
    lo, hi = max(0.0, -below, -above), min(math.pi, max(below, above))
    delta = min(below, above) if below > 0.0 and above > 0.0 else hi
    eps_list = [eps for eps in _EPS_LADDER if eps < delta][:levels]

    def g(x):
        return (f(x) + f(-x)) * centered_kernel(x)

    samples = []
    if eps_list:  # one pass; the panels come back sorted by left edge
        left, values = panel_integrals(g, min(max(eps_list[-1], lo), hi), hi,
                                       breakpoints=[*eps_list, abs(below), abs(above)])
        for eps, k in zip(eps_list, np.searchsorted(left, eps_list).tolist()):
            samples.append(panel_sum(values[k:]) - at_pole / math.tan(0.5 * eps))
    return extrapolate_ladder(eps_list, samples, _EPS_FIRST_ORDER)


# ---------------------------------------------------------------------------
# The periodized distributions


def _period_reduced(phi: TestFunction) -> TestFunction:
    """phi with its shift reduced modulo 2*pi into [-pi, pi], exactly
    before the one rounding to float; shifts past _MAX_SHIFT raise.

    Far from 0 the pole n * PERIOD + pi is off the true one by n times the
    2.4e-16 error of PERIOD, and rounds to ulp(n * PERIOD): at a shift of
    1e15 the pairing misses by 0.97.  The distribution is 2*pi-periodic, so
    the pairing is taken at the reduced shift instead."""
    shift = real(phi.shift, "shift", -_MAX_SHIFT, _MAX_SHIFT)
    if round(shift / PERIOD) == 0:
        return phi
    from fractions import Fraction  # only far shifts pay for the import

    s, two_pi = Fraction(shift), Fraction(_TWO_PI)
    return phi._replace(shift=float(s - round(s / two_pi) * two_pi))


def alternating_series_action(phi: TestFunction) -> complex:
    """Pairing with the 2*pi-periodic distribution whose Fourier series is
    e^{it} - 2 e^{2it} + 3 e^{3it} - ...: the periodized finite-part kernel
    plus i*pi times the derivative-of-delta comb at odd multiples of pi.

    A period cell whose pole lies in the support contributes the
    remainder-route finite part and -i*pi*phi'(pole).  Those cells are
    adjacent, and the kernel is smooth on the rest of the support: at most
    one plain integral before them and one after.

    Raises ValueError for a shift past 1e30 or a support over 1024 cells.
    """
    phi = _period_reduced(phi)
    sa, sb = _support(phi)
    first, end = math.floor(sa / PERIOD), math.ceil(sb / PERIOD)
    if end - first > _MAX_CELLS:
        raise ValueError(f"support must span at most {_MAX_CELLS} period cells")
    cells = [n for n in range(first, end) if sa <= n * PERIOD + math.pi <= sb]
    total = 0j
    for n in cells:
        pole = n * PERIOD + math.pi
        total += (_remainder_cell_action(phi, sa, sb, pole)
                  - 1j * math.pi * float(phi.deriv(np.array([pole]))[0]))
    pieces = ([(sa, cells[0] * PERIOD), ((cells[-1] + 1) * PERIOD, sb)] if cells
              else [(sa, sb)])
    for lo, hi in pieces:
        if lo < hi:
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
    # 65 probe points over the support, then 0; chi(0) and chi'(0) are
    # compared with chi's own size, so that no scaling of a chi that does not
    # vanish passes
    values = chi(np.append(np.linspace(sa, sb, 65), 0.0))
    probe = np.max(np.abs(values[:-1]))
    vanish_tol = 1e-9 * probe
    at0 = float(values[-1])
    d_at0 = float(chi.deriv(np.array([0.0]))[0])
    if abs(at0) > vanish_tol or abs(d_at0) > vanish_tol:
        raise ValueError(
            "test function must vanish to second order at 0 "
            f"(got chi(0)={at0:.3e}, chi'(0)={d_at0:.3e})"
        )

    # 0 is a breakpoint, so no Gauss node lands on the removable 0/0.  The
    # integrand grows like m^2 on a bump of half-width 1/m, and bisection
    # splits the outermost panels at +-15/16 of the half-width on every
    # level, so those edges are seeded too
    edge = (sb - sa) / 32

    def f(x):
        # on a panel [0, s] at a tiny shift s, sin^2(x/2) underflows to 0 and
        # 0 * inf would be nan: keep chi's zeros
        v = chi(x)
        return np.where(v == 0.0, 0.0, -v * centered_kernel(x))

    return integrate(f, sa, sb, breakpoints=(0.0, sa + edge, sb - edge, *chi.breakpoints))


# ---------------------------------------------------------------------------
# Mollified limits


def mollified_limit(pairing, vanishing_order: int = 0,
                    levels: int = DEFAULT_SCALE_LEVELS) -> EpsilonLimit:
    """Evaluate pairing(phi_m) on the scale ladder m = 2, 4, 8, ... and
    extrapolate m -> infinity in the powers 1/m^2, 1/m^4, ... of the even
    bumps; an odd power in the pairing stays in the extrapolant.

    Divergent ladders (magnitudes growing by >= 1.5x across the last three
    levels) are reported with the fitted power of m instead of a limit.

    The per-level reference route: one pairing, so one adaptive quadrature,
    per level.  The CLI's ``mollify`` runs ``panels.kernel_ladder``, the
    plain-float twin of ``jump_average``'s one kernel pass, instead; the
    tests check both against this route, and perfbench/ calls this one.
    """
    scales = _scale_ladder(levels)
    bump = Mollifier(vanishing_order)
    return _scale_limit(scales, [complex(pairing(bump.rescaled(m))) for m in scales])


def jump_average(f, vanishing_order: int = 0,
                 levels: int = DEFAULT_SCALE_LEVELS) -> EpsilonLimit:
    """The scale-ladder kernel pass: <f, phi_m> on the ladder m = 2, 4,
    8, ... of the bump of the given vanishing order, extrapolated as by
    ``mollified_limit``, whose parameter order it shares.  f is any kernel
    integrable against phi_m:
    - a jump, whose mollified value at 0 tends to (f(0+) + f(0-)) / 2 in
      even powers of 1/m when the odd one-sided derivatives of f agree at 0
      (a step plus an even part: Heaviside, sign, cos).  A kink at 0, as in
      exp(t) H(t), leaves a miss of order |f'(0+) - f'(0-)| / m that the
      error estimate does not show;
    - a kernel smooth at 0: ``alternating_kernel`` gives S, and at 2t H2S;
    - T0's double pole, minus ``centered_kernel``, for p >= 2 only, where
      phi vanishes to second order at 0.  The pass cannot check that, as
      ``all_plus_series_action`` does.

    In u = m t every pairing is the integral of f(u / m) phi(u) over
    [-1, 1], so one adaptive quadrature with a row per m integrates them
    all on the bump's grading, with u = 0, where a jump or a pole sits, a
    panel breakpoint.  f receives the rows raveled into one 1-D array.
    Every m is a power of 2, so u / m is exact and a sample equals the
    integral of f phi_m over the support of phi_m, to the bit, unless the
    two layouts bisect different panels.

    ``panels.kernel_ladder`` is this pass on plain floats, for a kernel of
    one float; the CLI runs it, and the tests hold it to this one.
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
