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
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import integrate

__all__ = ["Mollifier", "TestFunction", "bump_moment", "mollifier"]

VANISHING_ORDERS = (0, 2, 4)
# interior edges, in base coordinates, of the panels that bisection accepts
# for t^p psi(t) paired with the scale ladders' kernels at the default
# tolerance (p = 0, 2, 4; m = 2 to 1024).  Seeded as breakpoints, they are
# all evaluated in the first adaptive round instead of being reached one
# bisection at a time; a step against the p = 4 bump still splits the two
# outermost panels in a second round
_BUMP_GRADING = (0.0, *(s * b for b in (0.5, 0.75, 0.875) for s in (1.0, -1.0)))


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
    """phi(t) = amp * f(lam * (t - shift)) for a base f (a Mollifier, say)
    with numpy-vectorized value, deriv and deriv2 methods that vanish
    outside ``base_support``.  The map is data: transforms do not nest.

    A base may also offer ``breakpoints``, points in its own coordinate
    where quadrature panels should have edges; ``breakpoints`` here maps
    them to t, and is empty for a base without them."""

    base: object
    base_support: tuple
    lam: float = 1.0
    shift: float = 0.0
    amp: float = 1.0

    @property
    def support(self) -> tuple:
        sa, sb = self.base_support
        return (self.shift + sa / self.lam, self.shift + sb / self.lam)

    @property
    def breakpoints(self) -> tuple:
        return tuple(self.shift + b / self.lam
                     for b in getattr(self.base, "breakpoints", ()))

    def local(self, pole: float = 0.0, order: int = 0):
        """x -> phi^(order)(pole + x) for order <= 2.  The offset pole - shift
        is formed once, exactly when the shift is within a factor 2 of the
        pole (Sterbenz), so x is not rounded against the pole."""
        f = getattr(self.base, ("value", "deriv", "deriv2")[order])
        off, lam = pole - self.shift, self.lam
        c = self.amp * (1.0, lam, lam * lam)[order]
        if off == 0.0 and c == 1.0:  # plain or dilated: no idle array ops
            return f if lam == 1.0 else lambda x: f(lam * np.asarray(x, dtype=float))
        return lambda x: c * f(lam * (off + np.asarray(x, dtype=float)))

    def __call__(self, t):
        return self.local(0.0, 0)(t)

    value = __call__

    def deriv(self, t):
        return self.local(0.0, 1)(t)

    def deriv2(self, t):
        return self.local(0.0, 2)(t)

    def shifted(self, a: float) -> "TestFunction":
        """Translate by a: t maps to value(t - a)."""
        return replace(self, shift=self.shift + a)

    def dilated(self, lam: float) -> "TestFunction":
        """Homothetic image: t maps to value(lam * t); support scales by 1/lam."""
        scale = self.lam * lam
        if not scale > 0:  # also nan, and a product that underflows to 0
            raise ValueError("dilation factor must be positive")
        return replace(self, lam=scale, shift=self.shift / lam)

    def scaled(self, amp: float) -> "TestFunction":
        return replace(self, amp=self.amp * amp)


@dataclass(frozen=True)
class Mollifier:
    """t^p * psi(t) normalized to unit mass, rescaled by an integer m >= 1."""

    vanishing_order: int = 0
    scale: int = 1

    def __post_init__(self):
        if self.vanishing_order not in VANISHING_ORDERS:
            raise ValueError(f"vanishing order must be one of {VANISHING_ORDERS}")
        if self.scale < 1:
            raise ValueError("scale must be an integer >= 1")

    @property
    def norm_const(self) -> float:
        return bump_moment(self.vanishing_order)

    @property
    def support(self) -> tuple:
        return (-1.0 / self.scale, 1.0 / self.scale)

    @property
    def breakpoints(self) -> tuple:
        """The bump's quadrature grading, in t."""
        return tuple(b / self.scale for b in _BUMP_GRADING)

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
        return TestFunction(self, self.support)


def mollifier(vanishing_order: int = 0, scale: int = 1) -> TestFunction:
    """Convenience constructor returning the TestFunction directly."""
    return Mollifier(vanishing_order, scale).as_test_function()
