"""The paper's route to the derivatives at t = 0 of

    f(t) = e^{it} / (1 + e^{it})^2,

as an exact truncated Taylor series.  The series of e^{it} has coefficient
i^j / j! at t^j; f is formed from it with a truncated product, a reciprocal
and a second product, no general composition.  A coefficient is a pair
(re, im) of ``fractions.Fraction``, exact in Q(i).  The tests hold
``divsum.sums`` to these values; no subcommand loads this module.
"""

import math
from fractions import Fraction
from functools import lru_cache

from ._checks import integer

__all__ = ["generating_function_series", "derivative_at_zero", "DEFAULT_ORDER"]

DEFAULT_ORDER = 64


def _dot(a, b) -> tuple:
    """The sum of the products a[i] * b[i] of two sequences of pairs."""
    re = im = 0
    for (ar, ai), (br, bi) in zip(a, b):
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def _product(a, b) -> list:
    """The product of two series of pairs of one order, truncated there."""
    return [_dot(a[:j + 1], b[j::-1]) for j in range(len(a))]


def _reciprocal(a) -> list:
    """The formal inverse of a series of pairs whose constant term is real
    and nonzero."""
    inv0 = 1 / a[0][0]
    out = [(inv0, Fraction(0))]
    for j in range(1, len(a)):
        re, im = _dot(a[1:j + 1], out[::-1])
        out.append((-inv0 * re, -inv0 * im))
    return out


def _exp_it(order: int) -> list:
    """The series of e^{it}: i^j / j! at t^j, for j = 0, ..., order."""
    out, c, zero = [], Fraction(1), Fraction(0)  # c = 1 / j!
    for j in range(order + 1):
        if j:
            c /= j
        out.append(((c, zero), (zero, c), (-c, zero), (zero, -c))[j % 4])
    return out


@lru_cache(maxsize=None)
def _series(order: int) -> tuple:
    exp_it = _exp_it(order)
    one_plus = [(exp_it[0][0] + 1, Fraction(0)), *exp_it[1:]]
    return tuple(_product(exp_it, _reciprocal(_product(one_plus, one_plus))))


def generating_function_series(order: int = DEFAULT_ORDER) -> tuple:
    """The coefficients of f at t^0, ..., t^order, as pairs (re, im).

    Constant term 1/4; every odd-index coefficient comes out exactly 0
    (the function is even in t).  The series is cached on the checked int
    order, so every spelling of one order builds it once;
    ``cache_info`` and ``cache_clear`` are the cache's.
    """
    return _series(integer(order, "order", 0))


generating_function_series.cache_info = _series.cache_info
generating_function_series.cache_clear = _series.cache_clear


def derivative_at_zero(series, k: int) -> tuple:
    """The k-th derivative at 0, k! times the coefficient at t^k, as a pair
    (re, im), exact.

    Raises if k exceeds the order of the series: truncation never silently
    corrupts an exact result.
    """
    k = integer(k, "derivative order", 0)
    if k > len(series) - 1:
        raise ValueError(f"derivative order {k} exceeds series order {len(series) - 1}")
    re, im = series[k]
    return re * math.factorial(k), im * math.factorial(k)
