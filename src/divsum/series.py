"""Exact truncated Taylor series at t = 0 with Gaussian-rational coefficients.

The one pipeline that matters here is building

    f(t) = e^{it} / (1 + e^{it})^2

as a formal series and reading off its derivatives at 0 exactly.  The
series of e^{it} has coefficient i^j / j! at t^j; the quotient is formed
with formal multiplication and reciprocal only (no general composition).
The coefficients are ``GaussianRational`` values, exact in Q(i) over
``fractions.Fraction``; powers of i reduce through ``i_pow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "GaussianRational",
    "i_pow",
    "TaylorSeries",
    "constant_series",
    "series_exp_it",
    "generating_function_series",
    "derivative_at_zero",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 64


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @staticmethod
    def from_value(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    def __add__(self, other) -> "GaussianRational":
        o = GaussianRational.from_value(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.from_value(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.from_value(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.from_value(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        o = GaussianRational.from_value(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def is_real(self) -> bool:
        return self.im == 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


# i^k for k = 0, 1, 2, 3; arbitrary integers reduce modulo 4
_I_CYCLE = (
    GaussianRational(Fraction(1), Fraction(0)),
    GaussianRational(Fraction(0), Fraction(1)),
    GaussianRational(Fraction(-1), Fraction(0)),
    GaussianRational(Fraction(0), Fraction(-1)),
)


def i_pow(k: int) -> GaussianRational:
    """Exact i**k for any integer k (negative exponents allowed)."""
    return _I_CYCLE[k % 4]


_ZERO = GaussianRational(Fraction(0))
_ONE = GaussianRational(Fraction(1))


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series; ``coeffs[j]`` is the coefficient of t^j.

    A series of order N is exact modulo t^{N+1}.  Binary operations
    truncate to the smaller order of the two operands.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(
            self,
            "coeffs",
            tuple(GaussianRational.from_value(c) for c in self.coeffs),
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(self.order, other.order)
        return TaylorSeries(
            tuple(self.coeffs[j] + other.coeffs[j] for j in range(n + 1))
        )

    def __mul__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for j in range(n + 1):
            acc = _ZERO
            for k in range(j + 1):
                acc = acc + a[k] * b[j - k]
            out.append(acc)
        return TaylorSeries(tuple(out))

    def reciprocal(self) -> "TaylorSeries":
        """Formal inverse; requires a nonzero constant term."""
        a = self.coeffs
        if a[0].is_zero():
            raise ZeroDivisionError(
                "reciprocal of a series with zero constant term"
            )
        inv0 = _ONE / a[0]
        out = [inv0]
        for j in range(1, self.order + 1):
            acc = _ZERO
            for k in range(1, j + 1):
                acc = acc + a[k] * out[j - k]
            out.append(-inv0 * acc)
        return TaylorSeries(tuple(out))


def constant_series(value, order: int) -> TaylorSeries:
    c = GaussianRational.from_value(value)
    return TaylorSeries((c,) + (_ZERO,) * order)


def series_exp_it(order: int) -> TaylorSeries:
    """Series of e^{it}: coefficient of t^j is i^j / j!, exactly."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = []
    fact = 1
    for j in range(order + 1):
        if j > 0:
            fact *= j
        coeffs.append(i_pow(j) * Fraction(1, fact))
    return TaylorSeries(tuple(coeffs))


@lru_cache(maxsize=None)
def generating_function_series(order: int = DEFAULT_ORDER) -> TaylorSeries:
    """Series of e^{it} / (1 + e^{it})^2 at t = 0.

    Constant term 1/4; every odd-index coefficient comes out exactly 0
    (the function is even in t).
    """
    e = series_exp_it(order)
    denom = constant_series(1, order) + e
    return e * (denom * denom).reciprocal()


def derivative_at_zero(s: TaylorSeries, k: int) -> GaussianRational:
    """k-th derivative at 0, i.e. k! * coeffs[k], exact.

    Raises if k exceeds the stored order: truncation never silently
    corrupts an exact result.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if k > s.order:
        raise ValueError(
            f"derivative order {k} exceeds series order {s.order}"
        )
    return s.coeffs[k] * Fraction(math.factorial(k))
