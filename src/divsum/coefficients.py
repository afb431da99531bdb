"""The closed-form pairings: the Fourier coefficients c_n of the
alternating-series distribution on the epsilon ladder, and the Dirichlet
comb on the scale ladder, with the bump masses they and the mollifiers
share.  This module loads no numpy: ``divsum coeff`` and ``divsum mollify
--target dirichlet`` load only it and ``divsum.extrapolation``.
"""

from __future__ import annotations

import math
from functools import cache

from ._checks import integer, real
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

__all__ = ["fourier_coefficient_numeric", "dirichlet_comb_growth",
           "dirichlet_comb_ladder"]

_MAX_FOURIER_INDEX = 32

# the masses C_p, the integrals of t^p exp(-1/(1 - t^2)) over (-1, 1) that
# normalize the bumps of vanishing order p, as an adaptive Gauss quadrature
# at tolerance 1e-14 gives them (tests/oracles.py).  Against mpmath at 40
# digits C_0 is correctly rounded, C_2 is 1 ulp low and C_4 2 ulps low;
# they are kept as they are, so that no mollifier value moves
_BUMP_MASSES = {
    0: float.fromhex("0x1.c6a650a045c5cp-2"),
    2: float.fromhex("0x1.1f8b956c8f169p-4"),
    4: float.fromhex("0x1.816920b5e7b14p-6"),
}
# phi(0) = exp(-1) / C_0 of the p = 0 bump, to the bit of Mollifier(0).value(0)
_BUMP_AT_ZERO = math.exp(-1.0) / _BUMP_MASSES[0]


def fourier_coefficient_numeric(n: int,
                                levels: int = DEFAULT_EPS_LEVELS) -> EpsilonLimit:
    """Numerical Fourier coefficient c_n of the alternating-series
    distribution: the limit of

      (1/2pi) ( integral over the truncated period window of e^{-int} K(t)
                - (-1)^n / tan(eps/2)  -  (-1)^n n pi ).

    Converges to (-1)^{n-1} n for n >= 1 and to 0 for n <= 0.  About the
    pole t = pi the window integral folds to 2 (-1)^n cos(nx) K(x) on
    (eps, pi), and 1/tan(eps/2) is the integral of 2 K there, so the first
    two terms integrate the bounded Fejer form -(-1)^n (sin(nx/2)/sin(x/2))^2,
    that is -(-1)^n (|n| + 2 sum_{k<|n|} (|n| - k) cos(kx)) (Zygmund, ch. III),
    over (eps, pi): the at most 32 terms, summed correctly rounded, of

      -(-1)^n (|n| (pi - eps) - 2 sum_{k=1}^{|n|-1} (|n| - k) sin(k eps) / k).

    Each record is built once per process per (n, levels), at most 1105
    records, and shared by every later caller: ``EpsilonLimit`` is immutable.
    """
    return _coefficient_ladder(
        integer(n, "n", -_MAX_FOURIER_INDEX, _MAX_FOURIER_INDEX),
        integer(levels, "levels", 4, MAX_LEVELS))


@cache
def _coefficient_ladder(n: int, levels: int) -> EpsilonLimit:
    """The c_n record of ``fourier_coefficient_numeric``, keyed on the
    validated ints, so every spelling of one (n, levels) shares an entry."""
    eps_list = _EPS_LADDER[:levels]
    sign = -1.0 if n % 2 else 1.0
    m = abs(n)
    samples = []
    for eps in eps_list:
        fejer = -sign * math.fsum([m * (math.pi - eps), *(
            -2.0 * (m - k) * math.sin(k * eps) / k for k in range(1, m))])
        samples.append((fejer - sign * n * math.pi) / math.tau)
    return extrapolate_ladder(eps_list, samples, _EPS_FIRST_ORDER)


def dirichlet_comb_growth(m: float) -> float:
    """Pairing of the Dirichlet comb sum_n e^{int} with phi_m: 2 pi m phi(0).

    By Poisson summation the comb is 2 pi sum_k delta_{2 pi k}, so the
    pairing is 2 pi sum_k phi_m(2 pi k).  phi_m is supported in
    [-1/m, 1/m], inside (-2 pi, 2 pi) for every m >= 1, so only k = 0
    meets the support and the sum is 2 pi phi_m(0) = 2 pi m phi(0): exactly
    linear in m.  phi is the p = 0 bump, since phi(0) > 0 needs no
    vanishing factor.  The truncated spectral sum of the bump's transform
    is the independent route, checked against this in the tests.

    Raises ValueError unless m is a finite real >= 1, or when the pairing,
    (2 pi m) phi(0), leaves the float range: for m past about 2.86e307.
    """
    m = real(m, "m", 1)
    value = math.tau * m * _BUMP_AT_ZERO
    if not math.isfinite(value):
        raise ValueError(f"comb pairing at m={m!r} is outside the float range")
    return value


def dirichlet_comb_ladder(levels: int = 8) -> EpsilonLimit:
    """Scale ladder of the comb pairing, m = 1, 2, 4, ..., 2^(levels-1); its
    values 2 pi m phi(0) double at every level, so it is always divergent."""
    scales = _scale_ladder(levels, base=1)
    return _scale_limit(scales, [complex(dirichlet_comb_growth(m)) for m in scales])
