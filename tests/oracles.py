"""Independent checks of the paper's manipulations, used only by the tests:
exact identities on coefficient sequences, the dilation rule through
the lacunary Fourier series, the jump pairing level by level, the
Dirichlet comb through its truncated spectral sum, the c_n ladder through
adaptive quadrature of the Fejer form and through its terms summed one by
one, the bump masses through adaptive quadrature, the direct zeta
series as one np.sum over a second array of powers, and the S, H2S, T0 and
jump:cos scale ladders sample by sample through their series in the
bump's moments.  It also holds the inputs that ``golden_lib.json`` pins
and the mpmath truths and layout checks share: the bump tables, the
seeded draw of bumps spanning several periods, and the jump functions."""

import functools
import math
import random
from fractions import Fraction

import numpy as np

from divsum.distributions import alternating_series_action
from divsum.extrapolation import (
    _EPS_FIRST_ORDER,
    _EPS_LADDER,
    EpsilonLimit,
    extrapolate_ladder,
)
from divsum.mollifiers import Mollifier, TestFunction, _profile, mollifier
from divsum.quadrature import gauss_grid, integrate, panel_integrals, panel_sum
from divsum.sums import alternating_sum_powers, sum_powers

# rounding error of a weighted-node transform, relative to sum |w_eff|
_TRANSFORM_ROUNDING = 8.0 * np.finfo(float).eps
_LACUNARY_TAIL_TOL = 1e-13
_LACUNARY_MAX_TERMS = 4096
_COMB_XI_MAX = 480.0  # spectral cutoff: bump transform tail is < 1e-7 beyond
_MOMENT_DPS = 40
# terms of the moment series: at m = 2 the last one kept is under 1e-22 of
# the first (8.8e-23 for S at p = 4; 1e-30 for T0)
_SERIES_TERMS = 14

# mollifier(p, 1).dilated(lam).shifted(pi + offset), as (p, lam, offset)
REMAINDER_BUMPS = [
    (0, 1.0, 0.0),                  # centred on the pole
    (2, 1.0, 0.3),                  # shifted, pole inside
    (4, 1 / 0.3, 6e-4),             # phi''(pi) near 0
    (2, 50.0, 0.018),               # narrow, across the pole
    (4, 50.0, 0.003),
    (0, 2.0, 0.6),                  # pole 0.1 outside the support
    (2, 1 / 0.35, 2.0 - math.pi),   # pole 0.79 outside the support
    (4, 200.0, 0.0),                # half-width 0.005 centred on the pole
    (0, 200.0, 0.0055),             # pole 0.0005 outside the support
    (2, 100.0, 0.011),              # pole 0.001 outside the support
    (4, 1000.0, 1.01e-3),           # pole 1e-5 outside a half-width 0.001 bump
    (0, 20.0, 0.05),                # pole on the left support edge
]
# half-width 0.001 bumps whose pole lies gap outside a support edge, centred
# at pi + side * (gap + 0.001): side 1 puts the pole past the left edge
NEAR_POLE_BUMPS = [(p, gap, side) for p in (0, 2, 4) for gap in (0.05, 0.2)
                   for side in (1, -1)]
# half-width 0.05 bumps with a support edge on the pole or 1e-3 past it,
# centred at pi + side * (0.05 + gap)
EDGE_POLE_BUMPS = [(p, side, gap) for p in (0, 2, 4) for side in (1, -1)
                   for gap in (0.0, 1e-3)]


def _spanning_draw() -> list:
    rng = random.Random(20261018)
    return [[(p, periods, mollifier(p, 1).dilated(1.0 / (periods * math.pi))
              .shifted(rng.uniform(-math.pi, math.pi)).scaled(rng.uniform(0.5, 2.0)))
             for p in (0, 2, 4) for periods in (1.5, 2.0, 3.0, 4.0)]
            for _ in range(3)]


# bumps drawn like the benchmark's alternating-series ops, as (p, periods,
# bump): a support of 1.5 to 4 periods, a random shift and amplitude.  One
# seeded draw gives three rounds of one bump per cell; the golden pins the
# first round
SPANNING_BUMPS = _spanning_draw()


def heaviside(t):
    return np.where(np.asarray(t) > 0, 1.0, 0.0)


# the functions whose jump averages at 0 are 1/2, 0 and 1
JUMPS = {"heaviside": heaviside, "sign": np.sign, "cos": np.cos}


def bump_moment_quadrature(j: int) -> float:
    """integral of t^j psi(t) over (-1, 1) by adaptive quadrature at
    tolerance 1e-14: the route that gave the tabulated masses C_0, C_2, C_4."""
    return integrate(lambda t: t**j * _profile(t, 0, 0), -1.0, 1.0, tol=1e-14).real


@functools.cache
def bump_moments() -> dict:
    """k -> mu_k, the integral of t^k exp(-1/(1 - t^2)) over (-1, 1), for
    even k <= 30: twice the integral over (0, 1), by mpmath quadrature at 40
    digits (mpmath mpf values; at 60 digits they move by under 1e-41)."""
    import mpmath

    def psi(t):
        u = 1 - t * t
        return mpmath.exp(-1 / u) if u > 0 else mpmath.mpf(0)

    with mpmath.workdps(_MOMENT_DPS):
        return {k: 2 * mpmath.quad(lambda t: t**k * psi(t), [0, 1])
                for k in range(0, 31, 2)}


def _moment_series(p: int, m: float, coefficient, pole: bool = False) -> float:
    """sum_{j < 14} (-1)^j c_j mu_{p+2j} / ((2j)! mu_p m^{2j}) at 40 digits,
    for c_j = coefficient(2j + 1), a Fraction; with ``pole``, plus the
    term -m^2 mu_{p-2} / mu_p of a -1/t^2 in the kernel."""
    import mpmath

    mu = bump_moments()
    with mpmath.workdps(_MOMENT_DPS):
        m = mpmath.mpf(m)
        total = -m * m * mu[p - 2] / mu[p] if pole else mpmath.mpf(0)
        for j in range(_SERIES_TERMS):
            c = coefficient(2 * j + 1)
            total += ((-1) ** j * mpmath.mpf(c.numerator) / c.denominator
                      * mu[p + 2 * j] / (math.factorial(2 * j) * mu[p] * m ** (2 * j)))
        return float(total)


def alternating_scale_sample(p: int, m: float) -> float:
    """<S, phi_m> for the bump of vanishing order p and m >= 2, from the
    Maclaurin series of the kernel 1/(4 cos^2(t/2)) on the support
    [-1/m, 1/m]: its t^{2j} coefficient is (-1)^j A_{2j+1} / (2j)!, where
    A_k = 1^k - 2^k + 3^k - ... is the paper's value from
    ``alternating_sum_powers``.  The j = 0 term is A_1 = 1/4, the limit."""
    return _moment_series(p, m, lambda k: alternating_sum_powers(k).value)


def all_plus_scale_sample(p: int, m: float) -> float:
    """<T0, phi_m> for the bump of vanishing order p >= 2 and m >= 2, from
    the Laurent series -1/t^2 + sum_j (-1)^j zeta(-(2j+1)) t^{2j} / (2j)! of
    the kernel -1/(4 sin^2(t/2)), with zeta(-k) from ``sum_powers``: the
    pole gives -m^2 mu_{p-2} / mu_p, and the j = 0 term is zeta(-1) = -1/12,
    the paper's value of 1 + 2 + 3 + ..."""
    return _moment_series(p, m, lambda k: sum_powers(k).value, pole=True)


def cos_scale_sample(p: int, m: float) -> float:
    """<cos, phi_m> for the bump of vanishing order p, from the Maclaurin
    series of cos, whose t^{2j} coefficient is (-1)^j / (2j)!: every
    coefficient of the moment series is 1, and the j = 0 term is the
    limit 1."""
    return _moment_series(p, m, lambda k: Fraction(1))


def _lacunary_series_pairing(phi: TestFunction, lam: float) -> complex:
    """sum over q >= 1 of (-1)^{q-1} q <e^{i lam q t}, phi>, truncated when
    the terms' spectral decay makes the tail negligible.

    Each block of 64 terms integrates on one Gauss grid fine enough for its
    top frequency.  A transform computed from weights w_eff carries a
    rounding error of about eps * sum |w_eff|, so the terms level off near
    q times that instead of decaying further; a term below that floor
    counts as small.
    """
    sa, sb = phi.support
    total = 0j
    small_run = 0
    for q0 in range(1, _LACUNARY_MAX_TERMS + 1, 64):
        qs = np.arange(q0, min(q0 + 64, _LACUNARY_MAX_TERMS + 1))
        mus = lam * qs.astype(float)
        n_panels = max(16, math.ceil((sb - sa) * mus[-1] / 3.0))
        edges = np.linspace(sa, sb, n_panels + 1)
        t, weights, half = gauss_grid(edges[:-1], edges[1:])
        t = t.ravel()
        w_eff = (weights * half[:, None]).ravel() * phi(t)
        fts = np.exp(1j * mus[:, None] * t[None, :]) @ w_eff
        floor = _TRANSFORM_ROUNDING * float(np.sum(np.abs(w_eff)))
        terms = np.where(qs % 2 == 1, 1.0, -1.0) * qs * fts
        for q, term in zip(qs, terms):
            total += term
            if abs(term) < max(_LACUNARY_TAIL_TOL * (1.0 + abs(total)), q * floor):
                small_run += 1
                if small_run >= 3:
                    return total
            else:
                small_run = 0
    raise ArithmeticError("lacunary series tail did not become negligible")


def jump_pairing(f):
    """phi -> <f, phi>: f phi integrated over the support of phi, with the
    jump at 0 and phi's grading as panel breakpoints.  Paired with phi_m by
    ``mollified_limit``, it samples the ladder of ``jump_average`` one
    adaptive quadrature per level."""

    def pairing(phi: TestFunction) -> complex:
        return integrate(lambda t: f(t) * phi(t), *phi.support,
                         breakpoints=(0.0, *phi.breakpoints))

    return pairing


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


def comb_spectral_pairing(m: int) -> float:
    """<sum_n e^{int}, phi_m> for the p = 0 mollifier, summed over the
    spectrum |n| <= _COMB_XI_MAX * m instead of through Poisson summation:
    the reference for ``dirichlet_comb_growth``."""
    return _comb_spectral_sum(Mollifier(0), m, math.ceil(_COMB_XI_MAX * m))


def fourier_coefficient_quadrature(n: int, levels: int) -> EpsilonLimit:
    """The c_n ladder of ``fourier_coefficient_numeric`` with each sample's
    Fejer integral by adaptive quadrature instead of its closed form.

    The Fejer form -(-1)^n (sin(nx/2) / sin(x/2))^2 is integrated once over
    (eps_last, pi), with every eps a breakpoint and the panels pre-split
    every 6/|n| so the error estimator never aliases; a sample is the
    correctly rounded sum of the panels to the right of its eps.
    """
    sign = -1.0 if n % 2 else 1.0

    def g(x):
        return -sign * (np.sin(0.5 * n * x) / np.sin(0.5 * x)) ** 2

    cuts = []
    if abs(n) >= 4:
        step = 6.0 / abs(n)
        cuts = list(np.arange(step, math.pi, step))
    eps_list = _EPS_LADDER[:levels]
    left, values = panel_integrals(g, eps_list[-1], math.pi,
                                   breakpoints=[*eps_list, *cuts])
    samples = [(panel_sum(values[k:]) - sign * n * math.pi) / (2.0 * math.pi)
               for k in np.searchsorted(left, eps_list).tolist()]
    return extrapolate_ladder(eps_list, samples, _EPS_FIRST_ORDER)


def fourier_coefficient_plain(n: int, levels: int) -> EpsilonLimit:
    """The c_n ladder of ``fourier_coefficient_numeric`` with each sample's
    terms computed one by one, sin(k eps) included: the bitwise oracle of
    the library's sine table and mapped terms, which must round every term
    as this loop does."""
    eps_list = _EPS_LADDER[:levels]
    sign = -1.0 if n % 2 else 1.0
    m = abs(n)
    samples = []
    for eps in eps_list:
        fejer = -sign * math.fsum([m * (math.pi - eps), *(
            -2.0 * (m - k) * math.sin(k * eps) / k for k in range(1, m))])
        samples.append((fejer - sign * n * math.pi) / math.tau)
    return extrapolate_ladder(eps_list, samples, _EPS_FIRST_ORDER)


def homothety_pairing_check(phi: TestFunction, lam: float,
                            tol: float = 1e-9) -> bool:
    """Check the dilation rule <H_lam T, phi> = (1/lam) <T, H_{1/lam} phi>
    on the alternating-series distribution, for lam > 0.

    The left side is evaluated independently through the lacunary Fourier
    series sum_q (-1)^{q-1} q e^{i lam q t}, the right side through the
    kernel-and-comb pairing of the dilated test function.  The default
    ``tol`` is about twice the worst gap over the tests' 18 cases, 4.32e-10
    (p = 4, shift 0.3, lam = 0.37), with numpy's AVX512 loops on or off.
    """
    via_definition = alternating_series_action(phi.dilated(1.0 / lam)) / lam
    via_series = _lacunary_series_pairing(phi, lam)
    return abs(via_definition - via_series) <= tol


def zeta_partial_sum_two_arrays(s: float, terms: int) -> float:
    """``zeta_partial_sum`` as one np.sum over n ** (-s) in a second array:
    the reference for its in-place powers, which must agree bitwise."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    return float(np.sum(n ** (-s))) + terms ** (1.0 - s) / (s - 1.0)


def ramanujan_identity_check(order: int) -> bool:
    """Coefficient identity behind the shift-and-subtract manipulation.

    For a_n = n, subtracting 4 copies of the sequence spread onto the even
    positions (4 * (n/2) at even n, 0 at odd n) must give (-1)^{n-1} n.
    Checked exactly for 1 <= n <= order.
    """
    for n in range(1, order + 1):
        dilated = 4 * (n // 2) if n % 2 == 0 else 0
        if n - dilated != (-1) ** (n - 1) * n:
            return False
    return True


def derivative_dilation_commutation_check(k: int, lam: int, order: int) -> bool:
    """Differentiate-then-dilate equals lam^k times dilate-then-differentiate
    on c_n = (-1)^{n-1} n (n >= 1, else 0), exactly for |n| <= order.

    Differentiation maps c_n to (i n)^k c_n and dilation by the integer lam
    spreads c_q onto index lam*q.  Both sides carry i^k and vanish off the
    multiples of lam, so the integers n^k c_q and lam^k q^k c_q are compared.
    """

    def coeff(n: int) -> int:
        return (-1) ** (n - 1) * n if n >= 1 else 0

    for n in range(-order, order + 1):
        q, r = divmod(n, lam)
        # (H_lam T)^(k) against lam^k H_lam(T^(k)) at index n = lam*q
        if r == 0 and n**k * coeff(q) != lam**k * (q**k * coeff(q)):
            return False
    return True
