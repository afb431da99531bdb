"""Fourier coefficients c_n of the alternating-series distribution, in
closed form on the epsilon ladder; this module loads no numpy."""

from __future__ import annotations

import math

from ._checks import integer
from .extrapolation import (
    _EPS_FIRST_ORDER,
    _EPS_LADDER,
    DEFAULT_EPS_LEVELS,
    MAX_LEVELS,
    EpsilonLimit,
    extrapolate_ladder,
)

__all__ = ["fourier_coefficient_numeric"]

_MAX_FOURIER_INDEX = 32


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
    """
    n = integer(n, "n", -_MAX_FOURIER_INDEX, _MAX_FOURIER_INDEX)
    eps_list = _EPS_LADDER[:integer(levels, "levels", 4, MAX_LEVELS)]
    sign = -1.0 if n % 2 else 1.0
    m = abs(n)
    samples = []
    for eps in eps_list:
        fejer = -sign * math.fsum([m * (math.pi - eps), *(
            -2.0 * (m - k) * math.sin(k * eps) / k for k in range(1, m))])
        samples.append((fejer - sign * n * math.pi) / (2.0 * math.pi))
    return extrapolate_ladder(eps_list, samples, _EPS_FIRST_ORDER)
