"""Symmetric positive mollifiers and the test functions built from them.

The base profile is the standard bump psi(t) = exp(-1/(1 - t^2)) on
(-1, 1), zero outside.  A mollifier here is the unit bump t^p * psi(t)
normalized to unit mass, where the vanishing order p is 0, 2 or 4 (p >= 2
forces phi(0) = phi'(0) = 0).  Its homothety phi_m(t) = m * phi(m t) is the
TestFunction with lam = amp = m, so every dilation, shift and amplitude,
and their chain rule, goes through the one affine map of TestFunction.  All
evaluators accept numpy arrays and return exact zeros outside the declared
support.

Normalization constants have no closed form; they are tabulated, for
p = 0, 2 and 4, in the numpy-free ``divsum.coefficients``.  The vanishing
orders and the bump's quadrature grading live in the numpy-free
``divsum.panels``, whose plain-float bump the CLI's ``mollify`` runs.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import panels
from ._checks import integer, real
from .coefficients import _BUMP_MASSES
from .panels import VANISHING_ORDERS, checked_vanishing_order

__all__ = ["Mollifier", "TestFunction", "bump_moment", "mollifier"]


def _profile(t: np.ndarray, p: int, order: int) -> np.ndarray:
    """order-th derivative of t^p psi(t) by the Leibniz rule, order <= 2;
    exact zeros outside (-1, 1)."""
    inside = np.abs(t) < 1.0
    # points outside, nan among them, move to 0, where nothing below can
    # overflow or divide by zero; their values are dropped at the end
    t = np.where(inside, t, 0.0)
    s = t * t
    u = 1.0 - s
    e = np.exp(-1.0 / u)
    psi = [e]                                     # psi, psi', psi''
    if order >= 1:
        g = -2.0 * t / u**2                       # (d/dt) of -1/(1-t^2)
        psi.append(e * g)
    if order >= 2:
        gp = -2.0 / u**2 - 8.0 * s / u**3         # its derivative
        psi.append(e * (g * g + gp))
    if p == 0:
        return np.where(inside, psi[order], 0.0)
    # t^p and its first two derivatives by explicit squaring: libm pow is not
    # bit-symmetric in t, and phi(t) = phi(-t) must hold exactly
    mono = [s if p == 2 else s * s]
    if order >= 1:
        mono.append(2.0 * t if p == 2 else 4.0 * (t * s))
    if order >= 2:
        mono.append(2.0 if p == 2 else 12.0 * s)
    f = mono[order] * psi[0]
    for i in range(1, order + 1):
        f = f + math.comb(order, i) * mono[order - i] * psi[i]
    return np.where(inside, f, 0.0)


def bump_moment(j: int) -> float:
    """integral of t^j * psi(t) over (-1, 1): the tabulated mass C_j for
    j = 0, 2, 4, and zero for odd j by symmetry; any other j raises
    ValueError."""
    j = integer(j, "j")
    if j in _BUMP_MASSES:
        return _BUMP_MASSES[j]
    if j % 2 == 1:
        return 0.0
    raise ValueError(f"j must be tabulated: one of {VANISHING_ORDERS} or odd")


class TestFunction(namedtuple("TestFunction", "base lam shift amp")):
    """phi(t) = amp * f(lam * (t - shift)) for a base f (a Mollifier, say)
    with numpy-vectorized value, deriv and deriv2 methods that vanish
    outside its ``support``, a pair (a, b) in its own coordinate.  The map
    is data: transforms do not nest, and ``support`` here maps the base's
    to t.

    A base may also offer ``breakpoints``, points in its own coordinate
    where quadrature panels should have edges; ``breakpoints`` here maps
    them to t, and is empty for a base without them.  Every constructor
    validates and keeps floats, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, base, lam: float = 1.0, shift: float = 0.0, amp: float = 1.0):
        return super().__new__(cls, base, real(lam, "dilation factor", 0, strict=True),
                               real(shift, "shift"), real(amp, "amplitude"))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates

    @property
    def support(self) -> tuple:
        sa, sb = self.base.support
        return (self.shift + sa / self.lam, self.shift + sb / self.lam)

    @property
    def breakpoints(self) -> tuple:
        return tuple(self.shift + b / self.lam
                     for b in getattr(self.base, "breakpoints", ()))

    def local(self, pole: float = 0.0, order: int = 0):
        """x -> phi^(order)(pole + x) for order 0, 1 or 2 and a finite pole, that is
        amp * lam^order * f^(order)(lam * (pole - shift + x)) by the chain
        rule.  The offset pole - shift is formed once, exactly when the shift
        is within a factor 2 of the pole (Sterbenz), so x is not rounded
        against the pole."""
        order = integer(order, "order", 0, 2)
        return self._local(real(pole, "pole"), order)

    def _local(self, pole: float, order: int):
        """``local`` for a float pole and an int order in (0, 1, 2), unchecked."""
        f = getattr(self.base, ("value", "deriv", "deriv2")[order])
        off, lam = pole - self.shift, self.lam
        c = self.amp * (1.0, lam, lam * lam)[order]

        def at(x):
            # far outside the support t may overflow to an infinity, where f
            # is 0, and c * v to one that the caller judges as not finite
            with np.errstate(over="ignore"):
                t = lam * (off + np.asarray(x, dtype=float))
                v = f(t)
                # where amp * lam^order overflows, inf * 0 would be nan: keep
                # f's zeros
                return c * v if math.isfinite(c) else np.where(v == 0.0, 0.0, c) * v
        return at

    def __call__(self, t):
        return self._local(0.0, 0)(t)

    value = __call__

    def deriv(self, t):
        return self._local(0.0, 1)(t)

    def deriv2(self, t):
        return self._local(0.0, 2)(t)

    def shifted(self, a: float) -> "TestFunction":
        """Translate by a: t maps to value(t - a)."""
        return self._replace(shift=self.shift + real(a, "shift"))

    def dilated(self, lam: float) -> "TestFunction":
        """Homothetic image: t maps to value(lam * t); support scales by 1/lam."""
        lam = real(lam, "dilation factor", 0, strict=True)
        return self._replace(lam=self.lam * lam, shift=self.shift / lam)

    def scaled(self, amp: float) -> "TestFunction":
        return self._replace(amp=self.amp * real(amp, "amplitude"))


class Mollifier(namedtuple("Mollifier", "vanishing_order")):
    """The unit bump t^p * psi(t) / C_p on (-1, 1), C_p = bump_moment(p), with
    its quadrature grading; ``rescaled(m)`` gives phi_m."""

    __slots__ = ()
    support = (-1.0, 1.0)

    def __new__(cls, vanishing_order: int = 0):
        return super().__new__(cls, checked_vanishing_order(vanishing_order))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates

    @property
    def breakpoints(self) -> tuple:
        """The bump's quadrature grading, read from ``divsum.panels``."""
        return panels._BUMP_GRADING

    def _derivative(self, t, order: int) -> np.ndarray:
        p = self.vanishing_order
        return _profile(np.asarray(t, dtype=float), p, order) / _BUMP_MASSES[p]

    def value(self, t) -> np.ndarray:
        return self._derivative(t, 0)

    def deriv(self, t) -> np.ndarray:
        return self._derivative(t, 1)

    def deriv2(self, t) -> np.ndarray:
        return self._derivative(t, 2)

    def rescaled(self, m: float) -> TestFunction:
        """phi_m(t) = m * phi(m t), of unit mass on (-1/m, 1/m), for 1 <= m < inf."""
        m = real(m, "scale", 1)
        return TestFunction(self, lam=m, amp=m)


def mollifier(vanishing_order: int = 0, scale: float = 1) -> TestFunction:
    """phi_m for the bump of the given vanishing order and m = scale."""
    return Mollifier(vanishing_order).rescaled(scale)
