"""Symmetric positive mollifiers and the test functions built from them.

The base profile is the standard bump psi(t) = exp(-1/(1 - t^2)) on
(-1, 1), zero outside.  A mollifier here is t^p * psi(t) normalized to
unit mass, where the vanishing order p is 0, 2 or 4 (p >= 2 forces
phi(0) = phi'(0) = 0), rescaled as phi_m(t) = m * phi(m t).  All
evaluators accept numpy arrays and return exact zeros outside the declared
support.

Normalization constants have no closed form; they are computed once per
p by quadrature and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import integrate

__all__ = ["Mollifier", "TestFunction", "bump_moment", "mollifier"]

VANISHING_ORDERS = (0, 2, 4)


def _bump_jet(t: np.ndarray, order: int) -> list:
    """[psi, psi', ..., psi^(order)] at points with |t| < 1, order <= 2."""
    u = 1.0 - t * t
    e = np.exp(-1.0 / u)
    jet = [e]
    if order >= 1:
        g = -2.0 * t / u**2                       # (d/dt) of -1/(1-t^2)
        jet.append(e * g)
    if order >= 2:
        gp = -2.0 / u**2 - 8.0 * t * t / u**3     # its derivative
        jet.append(e * (g * g + gp))
    return jet


def _profile(t: np.ndarray, p: int, order: int) -> np.ndarray:
    """order-th derivative of t^p psi(t) by the Leibniz rule; exact zeros
    outside (-1, 1)."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    psi = _bump_jet(ti, order)
    if p == 0:
        out[inside] = psi[order]
        return out
    # t^p and its first two derivatives by explicit squaring: libm pow is not
    # bit-symmetric in t, and phi(t) = phi(-t) must hold exactly
    s = ti * ti
    mono = [s if p == 2 else s * s]
    if order >= 1:
        mono.append(2.0 * ti if p == 2 else 4.0 * (ti * s))
    if order >= 2:
        mono.append(2.0 if p == 2 else 12.0 * s)
    f = mono[order] * psi[0]
    for i in range(1, order + 1):
        f = f + math.comb(order, i) * mono[order - i] * psi[i]
    out[inside] = f
    return out


_NORM_CACHE: dict = {}


def bump_moment(j: int) -> float:
    """integral of t^j * psi(t) over (-1, 1); zero for odd j by symmetry."""
    if j % 2 == 1:
        return 0.0
    if j not in _NORM_CACHE:
        # idempotent under concurrent computation; last write wins harmlessly
        _NORM_CACHE[j] = integrate(
            lambda t: t**j * _profile(t, 0, 0), -1.0, 1.0, tol=1e-14
        ).real
    return _NORM_CACHE[j]


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported function with first and second derivative.

    Evaluators are numpy-vectorized; everything vanishes outside
    ``support``.
    """

    value: Callable
    deriv: Callable
    deriv2: Callable
    support: tuple

    def __call__(self, t):
        return self.value(np.asarray(t, dtype=float))

    def shifted(self, a: float) -> "TestFunction":
        """Translate by a: t maps to value(t - a)."""
        v, d1, d2 = self.value, self.deriv, self.deriv2
        sa, sb = self.support
        return TestFunction(
            value=lambda t: v(np.asarray(t, dtype=float) - a),
            deriv=lambda t: d1(np.asarray(t, dtype=float) - a),
            deriv2=lambda t: d2(np.asarray(t, dtype=float) - a),
            support=(sa + a, sb + a),
        )

    def dilated(self, lam: float) -> "TestFunction":
        """Homothetic image: t maps to value(lam * t); support scales by 1/lam."""
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        v, d1, d2 = self.value, self.deriv, self.deriv2
        sa, sb = self.support
        return TestFunction(
            value=lambda t: v(lam * np.asarray(t, dtype=float)),
            deriv=lambda t: lam * d1(lam * np.asarray(t, dtype=float)),
            deriv2=lambda t: lam * lam * d2(lam * np.asarray(t, dtype=float)),
            support=(sa / lam, sb / lam),
        )

    def scaled(self, amp: float) -> "TestFunction":
        v, d1, d2 = self.value, self.deriv, self.deriv2
        return TestFunction(
            value=lambda t: amp * v(np.asarray(t, dtype=float)),
            deriv=lambda t: amp * d1(np.asarray(t, dtype=float)),
            deriv2=lambda t: amp * d2(np.asarray(t, dtype=float)),
            support=self.support,
        )


@dataclass(frozen=True)
class Mollifier:
    """t^p * psi(t) normalized to unit mass, rescaled by an integer m >= 1."""

    vanishing_order: int = 0
    scale: int = 1

    def __post_init__(self):
        if self.vanishing_order not in VANISHING_ORDERS:
            raise ValueError(
                f"vanishing order must be one of {VANISHING_ORDERS}"
            )
        if self.scale < 1:
            raise ValueError("scale must be an integer >= 1")

    @property
    def norm_const(self) -> float:
        return bump_moment(self.vanishing_order)

    @property
    def support(self) -> tuple:
        m = self.scale
        return (-1.0 / m, 1.0 / m)

    def _derivative(self, t, order: int) -> np.ndarray:
        """order-th derivative of m f(m t) / c, f(t) = t^p psi(t)."""
        m, c = self.scale, self.norm_const
        t = m * np.asarray(t, dtype=float)
        return m ** (order + 1) * _profile(t, self.vanishing_order, order) / c

    def value(self, t) -> np.ndarray:
        return self._derivative(t, 0)

    def deriv(self, t) -> np.ndarray:
        return self._derivative(t, 1)

    def deriv2(self, t) -> np.ndarray:
        return self._derivative(t, 2)

    def rescaled(self, m: int) -> "Mollifier":
        return Mollifier(self.vanishing_order, m)

    def as_test_function(self) -> TestFunction:
        return TestFunction(
            value=self.value,
            deriv=self.deriv,
            deriv2=self.deriv2,
            support=self.support,
        )


def mollifier(vanishing_order: int = 0, scale: int = 1) -> TestFunction:
    """Convenience constructor returning the TestFunction directly."""
    return Mollifier(vanishing_order, scale).as_test_function()
