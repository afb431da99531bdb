"""Vacuum energy of a 1-D massless scalar field pinned at two points.

The mode with index n between walls a distance d apart has wave number
k_n = n pi / d and angular frequency omega_n = c k_n, so the total ground
state energy is formally (pi hbar c / 2d) * (1 + 2 + 3 + ...).  The
divergent sum is never evaluated numerically: the module consumes the
exact regularized value -1/12 from the closed-form summation, giving

    E(d) = -pi c hbar / (24 d),      |E'(d)| = pi c hbar / (24 d^2).

The n = 0 mode is identically zero and carries no energy, so the sum
starts at n = 1.  Natural units (hbar = c = 1) are the default; SI values
can be supplied through the config.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from ._checks import integer, real
from .sums import sum_powers

__all__ = [
    "CavityConfig",
    "SI_HBAR",
    "SI_C",
    "mode_wavenumber",
    "angular_frequency",
    "ground_state_energy",
    "casimir_force",
]

SI_HBAR = 1.054571817e-34  # J s
SI_C = 2.99792458e8        # m / s


class CavityConfig(namedtuple("CavityConfig", "d c hbar")):
    """Wall separation d, speed of light c and hbar: finite reals > 0, as floats.

    A named tuple, so that ``divsum casimir`` need not import the dataclass
    module.  Every constructor validates, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, d: float, c: float = 1.0, hbar: float = 1.0):
        return super().__new__(cls, *(real(v, name, 0, strict=True)
                                      for name, v in zip(cls._fields, (d, c, hbar))))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates

    @staticmethod
    def si(d: float) -> "CavityConfig":
        return CavityConfig(d=d, c=SI_C, hbar=SI_HBAR)


def mode_wavenumber(n: int, cfg: CavityConfig) -> float:
    """k_n = n pi / d for mode index n >= 1, in the float range."""
    n = integer(n, "mode index", 1)
    try:
        wavenumber = n * math.pi / cfg.d
    except OverflowError:  # an int index too large to become a float
        wavenumber = math.inf
    return _in_float_range(wavenumber, cfg)


def angular_frequency(n: int, cfg: CavityConfig) -> float:
    """omega_n = c k_n (the dispersion relation c = omega_n / k_n), in the
    float range."""
    return _in_float_range(cfg.c * mode_wavenumber(n, cfg), cfg)


def _in_float_range(value: float, cfg: CavityConfig) -> float:
    """value, unless it overflowed, underflowed or lost digits as a subnormal."""
    if not (math.isfinite(value) and abs(value) >= sys.float_info.min):
        raise ValueError(f"result at d={cfg.d!r} is outside the float range")
    return value


def ground_state_energy(cfg: CavityConfig) -> float:
    """(pi hbar c / 2d) times the regularized sum of the mode indices."""
    coefficient = float(sum_powers(1).value)  # -1/12, never hard-coded
    energy = math.pi * cfg.hbar * cfg.c / (2.0 * cfg.d) * coefficient
    return _in_float_range(energy, cfg)


def casimir_force(cfg: CavityConfig) -> float:
    """Magnitude of dE/dd: pi c hbar / (24 d^2)."""
    denominator = float(-2 / sum_powers(1).value)  # -2 / (-1/12) = 24, exact
    # d * d is correctly rounded, and inf where d**2 would raise
    d_squared = _in_float_range(cfg.d * cfg.d, cfg)
    return _in_float_range(math.pi * cfg.c * cfg.hbar / (denominator * d_squared), cfg)
