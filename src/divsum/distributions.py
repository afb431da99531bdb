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
extrapolation in eps, and the Taylor-remainder route

    integral over one period cell of
        (t-p)^2 K(t) * integral_0^1 (1-theta) phi''(p + theta (t-p)) dtheta

which needs no limit process at all.  Their agreement is a library-level
invariant.  The remainder route is valid on any full period cell centered
at a pole p: the kernel integral over such a cell truncated by eps equals
1/tan(eps/2) exactly, and the first-order Taylor term drops out by the
symmetry of the cell about p.  With v = theta |t-p| the inner integral is
(|x| A - B) / x^2 for x = t - p, where A and B are the integrals of
phi''(p +- v) and v phi''(p +- v) over (0, |x|).  Each side of the pole
integrates A and B once per cell, adaptively over the part of the support
it covers, and keeps their prefix sums over the accepted panels; an outer
node reads the prefix below |x| and adds one Gauss panel up to |x|.

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

import numpy as np

from .errors import ConsistencyError
from .extrapolation import (
    EpsilonLimit,
    detect_divergence,
    divergent_ladder,
    extrapolate_ladder,
)
from .mollifiers import Mollifier, TestFunction, mollifier
from .quadrature import default_tolerance, gauss_grid, integrate, panel_integrals

__all__ = [
    "alternating_kernel",
    "centered_kernel",
    "kernel_ratio",
    "finite_part_action",
    "finite_part_action_epsilon",
    "alternating_series_action",
    "all_plus_series_action",
    "fourier_coefficient_numeric",
    "mollified_limit",
    "jump_average",
    "dirichlet_comb_growth",
    "dirichlet_comb_ladder",
    "homothety_pairing_check",
    "DEFAULT_EPS_LEVELS",
    "DEFAULT_SCALE_LEVELS",
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
# symmetric eps-windows drop the odd part: remainders run in eps, eps^3, ...
_EPS_FIRST_ORDER = 1

# a pole closer than this to the integration region forces the
# remainder-form route; farther away the kernel is integrated directly
_SINGULAR_MARGIN = 0.25

# tolerance of the remainder route's phi'' moments relative to
# max|phi''| times the span they cover; a bump of half-width 0.01 inside
# one of width 2 converges down to 1e-13 and stalls on rounding at 1e-14
_MOMENT_REL_TOL = 1e-12

_MAX_FOURIER_INDEX = 32

# a period cell costs about 0.7 ms on one x86 core and the benchmark's widest
# support spans 4 periods; 1e299 cells (a bump dilated by 1e-300) would hang
_MAX_CELLS = 1024


def alternating_kernel(t):
    """1 / (4 cos^2(t/2)); poles at odd multiples of pi."""
    t = np.asarray(t, dtype=float)
    return 0.25 / np.cos(0.5 * t) ** 2


def centered_kernel(x):
    """The same kernel with a pole shifted to x = 0: 1 / (4 sin^2(x/2))."""
    x = np.asarray(x, dtype=float)
    return 0.25 / np.sin(0.5 * x) ** 2


def kernel_ratio(x):
    """x^2 / (4 sin^2(x/2)) = (x / (2 sin(x/2)))^2, analytic on (-2pi, 2pi)."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = (x[nz] / (2.0 * np.sin(0.5 * x[nz]))) ** 2
    return out


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
# Taylor-remainder route


def _side_remainder(d2, sign: float, v_lo: float, v_hi: float, width: float):
    """Taylor remainder y -> phi(pole + sign y) - phi(pole) - sign y phi'(pole)
    = integral_0^y (y - v) d2(sign v) dv, 0 < y <= pi, d2(x) = phi''(pole + x).

    phi'' vanishes outside v in [v_lo, v_hi].  One adaptive quadrature over
    that interval, seeded with panels proportional to the share of the
    support it covers, runs once per cell, not once per outer node; the
    prefix sums of A = int phi'' dv and B = int v phi'' dv over its panels
    give y A - B over the whole panels below y, and one more Gauss panel,
    from the left edge of the panel holding y to y, adds the rest.
    """
    if not v_hi > v_lo:
        return np.zeros_like
    n = int(min(96, max(12, math.ceil(48.0 * (v_hi - v_lo) / width + 8))))
    seeds = np.linspace(v_lo, v_hi, n + 1)
    # an affine bump rounds v only against pole - shift, but a base given by
    # plain callables (a sum of bumps, say) sees pole + v, so its phi'' has
    # noise near |phi'''| ulp(pole), far above an absolute 1e-10 for narrow
    # features: A and B are asked for relative to the size of phi'' there
    nodes = gauss_grid(seeds[:-1], seeds[1:])[0].ravel()
    scale = float(np.max(np.abs(d2(sign * nodes)))) * (v_hi - v_lo)
    tol = max(default_tolerance(), _MOMENT_REL_TOL * scale)

    def moments(v):
        # A in the real part, B in the imaginary part: one error estimate
        # bounds both
        return d2(sign * v) * (1.0 + 1j * v)

    lo, ab = panel_integrals(moments, v_lo, v_hi, tol=tol, breakpoints=seeds)
    edges = np.append(lo, v_hi)
    pa = np.concatenate([[0.0], np.cumsum(ab.real)])
    pb = np.concatenate([[0.0], np.cumsum(ab.imag)])

    def remainder(y):
        k = np.maximum(np.searchsorted(edges, y, side="right") - 1, 0)
        out = y * pa[k] - pb[k]
        end = np.minimum(y, v_hi)
        part = end > edges[k]
        if part.any():
            t, w, h = gauss_grid(edges[k[part]], end[part])
            at = d2(sign * t.ravel()).reshape(t.shape)
            out[part] += (((y[part, None] - t) * at) @ w) * h
        return out

    return remainder


def _remainder_cell_action(phi: TestFunction, pole: float) -> complex:
    """Finite-part pairing over the period cell [pole - pi, pole + pi].

    Valid for any C^2 function on the closed cell; phi need not vanish at
    the cell edges.
    """
    sa, sb = _support(phi)
    width, d2 = sb - sa, phi.local(pole, 2)
    right = _side_remainder(d2, 1.0, max(sa - pole, 0.0),
                            min(sb - pole, math.pi), width)
    left = _side_remainder(d2, -1.0, max(pole - sb, 0.0),
                           min(pole - sa, math.pi), width)

    def outer(xv):
        xv = np.asarray(xv, dtype=float)
        rem = np.zeros_like(xv)
        for side, on in ((right, xv > 0.0), (left, xv < 0.0)):
            if on.any():
                rem[on] = side(np.abs(xv[on]))
        # no node lands on x = 0, a breakpoint
        return kernel_ratio(xv) * rem / (xv * xv)

    cuts = sorted(
        {float(np.clip(v, -math.pi, math.pi)) for v in (sa - pole, sb - pole, 0.0)}
    )
    return integrate(outer, -math.pi, math.pi, breakpoints=cuts)


def finite_part_action(phi: TestFunction) -> complex:
    """Finite-part pairing over (0, 2*pi) via the Taylor-remainder form."""
    _period_support(phi)
    return _remainder_cell_action(phi, math.pi)


# ---------------------------------------------------------------------------
# Truncated-window route


def _eps_limit(g, finish, lo: float, hi: float, cuts, levels: int,
               first: int = 0) -> EpsilonLimit:
    """Extrapolate finish(eps, integral of g over (eps, pi) intersected
    with (lo, hi)) on the halving ladder eps = EPS_TOP 2^-j for j = first,
    first + 1, ...: levels samples, fewer where the ladder would pass
    MAX_LEVELS.

    g is the even fold f(x) + f(-x) of an integrand f about the pole, and
    vanishes outside (lo, hi).  It is integrated once, over (eps_last, hi)
    clipped to (lo, hi), with every eps and every cut a breakpoint; the
    panels come back sorted, so a sample reads the sum of the panels whose
    left edge is at least its eps.  A ladder with fewer than 3 samples is
    returned unconverged, with its last sample as the value.
    """
    if levels < 3:
        raise ValueError("need at least 3 epsilon levels")
    if levels > MAX_LEVELS:
        raise ValueError(f"levels must be <= {MAX_LEVELS}")
    eps_list = [EPS_TOP * 0.5**j
                for j in range(first, min(first + levels, MAX_LEVELS))]
    samples = []
    if eps_list:
        a = min(max(eps_list[-1], lo), hi)
        left, values = panel_integrals(g, a, hi,
                                       breakpoints=[*eps_list, *cuts])
        re, im = values.real.tolist(), values.imag.tolist()
        for eps in eps_list:
            k = int(np.searchsorted(left, eps))
            window = complex(math.fsum(re[k:]), math.fsum(im[k:]))
            samples.append(finish(eps, window))
    if len(samples) < 3:
        return EpsilonLimit(
            samples=tuple(zip(eps_list, samples)),
            extrapolated=samples[-1] if samples else None,
            error_estimate=math.inf,
            converged=False,
        )
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
    f = phi.local(math.pi)
    at_pole = float(f(np.zeros(1))[0])
    # signed distances of the support edges from the pole, positive inside
    below, above = math.pi - sa, sb - math.pi
    # g vanishes outside the support's extent in x = |t - pi|
    lo, hi = max(0.0, -below, -above), min(math.pi, max(below, above))
    delta = min(below, above) if below > 0.0 and above > 0.0 else hi
    first = 0
    while first < MAX_LEVELS and EPS_TOP * 0.5**first >= delta:
        first += 1

    def g(x):
        return (f(x) + f(-x)) * centered_kernel(x)

    return _eps_limit(g, lambda eps, v: v - at_pole / math.tan(0.5 * eps),
                      lo, hi, (abs(below), abs(above)), levels, first)


# ---------------------------------------------------------------------------
# The periodized distributions


def alternating_series_action(phi: TestFunction) -> complex:
    """Pairing with the 2*pi-periodic distribution whose Fourier series is
    e^{it} - 2 e^{2it} + 3 e^{3it} - ...: the periodized finite-part kernel
    plus i*pi times the derivative-of-delta comb at odd multiples of pi.
    """
    sa, sb = _support(phi)
    n = math.floor(sa / PERIOD)
    if math.ceil(sb / PERIOD) - n > _MAX_CELLS:
        raise ValueError(f"support must span at most {_MAX_CELLS} period cells")
    total = 0j
    while n * PERIOD < sb:
        cell_lo, cell_hi = n * PERIOD, (n + 1) * PERIOD
        pole = cell_lo + math.pi
        lo, hi = max(sa, cell_lo), min(sb, cell_hi)
        n += 1
        if lo - _SINGULAR_MARGIN <= pole <= hi + _SINGULAR_MARGIN:
            total += _remainder_cell_action(phi, pole)
        else:
            total += integrate(lambda t: phi(t) * alternating_kernel(t), lo, hi)
        if lo <= pole <= hi:  # the cell's one pole carries the delta' term
            total += -1j * math.pi * float(phi.deriv(np.array([pole]))[0])
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

    return integrate(f, sa, sb, breakpoints=(0.0,))


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
    if levels < 4:
        raise ValueError("need at least 4 epsilon levels")
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

    return _eps_limit(g, finish, 0.0, math.pi, cuts, levels)


# ---------------------------------------------------------------------------
# Mollified limits


def _scale_ladder(levels: int, base: int = 2):
    if levels < 3:
        raise ValueError("need at least 3 scale levels")
    if levels > MAX_LEVELS:
        raise ValueError(f"levels must be <= {MAX_LEVELS}")
    return [base * 2**j for j in range(levels)]


def mollified_limit(pairing, vanishing_order: int = 0,
                    levels: int = DEFAULT_SCALE_LEVELS) -> EpsilonLimit:
    """Evaluate pairing(phi_m) on the scale ladder m = 2, 4, 8, ... and
    extrapolate m -> infinity in the powers 1/m^2, 1/m^4, ... of the even
    bumps; an odd power in the pairing stays in the extrapolant.

    Divergent ladders (magnitudes growing by >= 1.5x across the last three
    levels) are reported with the fitted power of m instead of a limit.
    """
    scales = _scale_ladder(levels)
    values = [complex(pairing(mollifier(vanishing_order, m))) for m in scales]
    if detect_divergence(values):
        return divergent_ladder(scales, values)
    return extrapolate_ladder(scales, values, first_order=2)


def jump_average(f, levels: int = DEFAULT_SCALE_LEVELS,
                 vanishing_order: int = 0) -> EpsilonLimit:
    """Mollified value at 0 of the regular distribution of f: it tends to
    (f(0+) + f(0-)) / 2 in even powers of 1/m when the odd one-sided
    derivatives of f agree at 0 (a step plus an even part: Heaviside, sign,
    cos).  A kink at 0, as in exp(t) H(t), leaves a miss of order
    |f'(0+) - f'(0-)| / m that the error estimate does not show.  The jump
    at 0 is a panel breakpoint."""

    def pairing(phi: TestFunction) -> complex:
        return integrate(lambda t: f(t) * phi(t), *phi.support, breakpoints=(0.0,))

    return mollified_limit(pairing, vanishing_order, levels)


# ---------------------------------------------------------------------------
# Divergence demonstrations


_COMB_XI_MAX = 480.0  # spectral cutoff: bump transform tail is < 1e-7 beyond


def _comb_spectral_sum(base: Mollifier, m: int, n_max: int) -> float:
    """Truncated spectral sum hat(phi_m)(0) + 2 sum_{n=1}^{n_max} hat(phi_m)(n).

    hat(phi_m)(n) = hat(phi)(n/m) = 2 int_0^1 phi(u) cos(n u / m) du for the
    even base mollifier.  Summing under the integral, the cosines add up to
    the Dirichlet kernel

        1 + 2 sum_{n=1}^{N} cos(n h)  =  sin((N + 1/2) h) / sin(h / 2),

    taken at h = u / m on a fixed Gauss grid fine enough for the kernel's
    frequency of about _COMB_XI_MAX.  No Gauss node sits at u = 0, so the
    quotient is never 0/0.
    """
    n_panels = max(32, math.ceil(_COMB_XI_MAX / 6.0) + 16)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    u, weights, half = gauss_grid(edges[:-1], edges[1:])
    h = u / m
    kernel = np.sin((n_max + 0.5) * h) / np.sin(0.5 * h)
    return float(np.sum(((2.0 * base.value(u) * kernel) @ weights) * half))


def dirichlet_comb_growth(m: int, agreement_tol: float = 1e-6) -> float:
    """Pairing of the Dirichlet comb sum_n e^{int} with phi_m.

    Evaluated two ways: the Poisson-summation closed form 2 pi m phi(0),
    and the truncated spectral sum of the mollifier transform with the
    cutoff chosen so the neglected tail is far below agreement_tol.  The
    routes must agree within agreement_tol; the validated closed-form value
    is returned.  Grows exactly linearly in m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    base = Mollifier(0, 1)  # needs phi(0) > 0, so no vanishing factor
    phi0 = float(base.value(np.array([0.0]))[0])
    closed = PERIOD * m * phi0

    spectral = _comb_spectral_sum(base, m, math.ceil(_COMB_XI_MAX * m))
    if abs(closed - spectral) > agreement_tol:
        raise ConsistencyError(
            "Dirichlet comb routes disagree: "
            f"closed={closed!r} spectral={spectral!r}"
        )
    return closed


def dirichlet_comb_ladder(levels: int = 8,
                          agreement_tol: float = 1e-6) -> EpsilonLimit:
    """Scale ladder of the comb pairing, m = 1, 2, 4, ..., 2^(levels-1); its
    values 2 pi m phi(0) double at every level, so it is always divergent."""
    scales = _scale_ladder(levels, base=1)
    values = [complex(dirichlet_comb_growth(m, agreement_tol)) for m in scales]
    return divergent_ladder(scales, values)


# ---------------------------------------------------------------------------
# Homothety


def _fourier_transform_batch(phi: TestFunction, mus: np.ndarray) -> tuple:
    """integral of phi(t) e^{i mu t} dt for a batch of frequencies, and the
    sum of |w_eff| over the weighted nodes, which scales its rounding error."""
    sa, sb = _support(phi)
    width = sb - sa
    mu_max = float(np.max(np.abs(mus))) if mus.size else 1.0
    n_panels = max(16, math.ceil(width * mu_max / 3.0))
    edges = np.linspace(sa, sb, n_panels + 1)
    t, weights, half = gauss_grid(edges[:-1], edges[1:])
    t = t.ravel()
    w_eff = (weights * half[:, None]).ravel() * phi(t)
    fts = np.exp(1j * mus[:, None] * t[None, :]) @ w_eff
    return fts, float(np.sum(np.abs(w_eff)))


# rounding error of a weighted-node transform, relative to sum |w_eff|
_TRANSFORM_ROUNDING = 8.0 * np.finfo(float).eps


_LACUNARY_TAIL_TOL = 1e-13
_LACUNARY_MAX_TERMS = 4096


def _lacunary_series_pairing(phi: TestFunction, lam: float) -> complex:
    """sum over q >= 1 of (-1)^{q-1} q <e^{i lam q t}, phi>, truncated when
    the terms' spectral decay makes the tail negligible.

    A transform computed from weights w_eff carries a rounding error of
    about eps * sum |w_eff|, so the terms level off near q times that
    instead of decaying further; a term below that floor counts as small.
    """
    total = 0j
    small_run = 0
    q0 = 1
    block = 64
    while q0 <= _LACUNARY_MAX_TERMS:
        qs = np.arange(q0, min(q0 + block, _LACUNARY_MAX_TERMS + 1))
        fts, mass = _fourier_transform_batch(phi, lam * qs.astype(float))
        signs = np.where(qs % 2 == 1, 1.0, -1.0)
        terms = signs * qs * fts
        for q, term in zip(qs, terms):
            total += term
            if abs(term) < max(_LACUNARY_TAIL_TOL * (1.0 + abs(total)),
                               q * _TRANSFORM_ROUNDING * mass):
                small_run += 1
                if small_run >= 3:
                    return total
            else:
                small_run = 0
        q0 += block
    raise ArithmeticError("lacunary series tail did not become negligible")


def homothety_pairing_check(phi: TestFunction, lam: float,
                            tol: float = 1e-6) -> bool:
    """Check the dilation rule <H_lam T, phi> = (1/lam) <T, H_{1/lam} phi>
    on the alternating-series distribution.

    The left side is evaluated independently through the lacunary Fourier
    series sum_q (-1)^{q-1} q e^{i lam q t}, the right side through the
    kernel-and-comb pairing of the dilated test function.
    """
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    via_definition = alternating_series_action(phi.dilated(1.0 / lam)) / lam
    via_series = _lacunary_series_pairing(phi, lam)
    return abs(via_definition - via_series) <= tol
