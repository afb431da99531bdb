"""Adaptive panel quadrature with a fixed-order Gauss rule per panel.

Panels are bisected until the local error estimate (panel value versus the
sum of its two halves) meets a width-proportional share of the absolute
tolerance, with a per-panel relative floor so that panels carrying huge but
accurately-computed contributions terminate.  Known trouble points (kernel
poles, mollifier support edges, jump locations, oscillation cuts) are
seeded as panel edges up front through ``breakpoints``, and so is the
mollifier's grading (``TestFunction.breakpoints``), the edges bisection
would reach on a bump, so that a bump pairing converges in round 0; growth
toward an endpoint, as of 1/x^2 near a truncated pole, is left to bisection.

Evaluation is batched: integrands must accept a 1-D numpy array, and are
called once per round.  Round 0 evaluates the seeded panels whole together
with both of their halves; each later round evaluates both halves of every
panel bisected in the round before.  The final reduction is a correctly
rounded sum (math.fsum) over the panels, so results are deterministic for a
given input; a panel's last bit still depends on where its row sits in the
batch it was evaluated in.

``gauss_grid`` is the one place the Gauss node and weight layout is built;
the adaptive panels here and the fixed grids in ``distributions`` use it.
``panel_integrals`` hands out the accepted panels themselves, sorted by
left edge, for callers that read prefix or suffix sums over them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "TOLERANCE", "gauss_grid", "integrate",
           "panel_integrals"]

TOLERANCE = 1e-10  # default absolute tolerance
GAUSS_ORDER = 15
_MAX_ROUNDS = 44
# cap on the panels seeded, and on the panels bisected in one round; one
# integrand call then takes at most 3 * 2^14 * GAUSS_ORDER = 737,280 nodes
# (round 0: every seeded panel whole and halved).  Normal use stays below 100
_MAX_ACTIVE_PANELS = 1 << 14
_REL_FLOOR = 1e-14


class QuadratureError(ArithmeticError):
    """Refinement cannot reach the requested tolerance: the integrand is not
    finite, the active panels exceed their cap, or the rounds run out."""


@lru_cache(maxsize=None)
def _gauss_rule():
    # built on first use: numpy.polynomial is not needed by exact-only runs
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def gauss_grid(lo, hi):
    """Gauss nodes of the panels [lo, hi], the rule's weights, and half-widths.

    ``lo`` and ``hi`` are arrays of one shape; the nodes of each panel lie
    on a new last axis.  A panel's integral is ``(f(x) @ weights) * half``.
    """
    nodes, weights = _gauss_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[..., None] + half[..., None] * nodes, weights, half


def _panel_values(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    x, weights, half = gauss_grid(lo, hi)
    v = np.asarray(f(x.ravel())).reshape(x.shape)
    values = (v @ weights) * half
    if not np.isfinite(values).all():
        raise QuadratureError("integrand is not finite on a panel")
    return values


def integrate(f, a: float, b: float, *, tol: float = TOLERANCE,
              breakpoints=()) -> complex:
    """Integral of a vectorized integrand over [a, b].

    Returns a complex value; real integrands come back with zero imaginary
    part.  Raises ValueError unless tol is finite and positive, or when
    the breakpoints seed more than _MAX_ACTIVE_PANELS panels, and
    QuadratureError if a panel value is not finite or bisection cannot
    reach the tolerance within the panel cap and the round limit.
    """
    _, values = panel_integrals(f, a, b, tol=tol, breakpoints=breakpoints)
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def panel_integrals(f, a: float, b: float, *, tol: float = TOLERANCE,
                    breakpoints=()) -> tuple:
    """The accepted panels of ``integrate``, sorted by left edge: their left
    edges and complex integrals, which sum to its value.  The panels tile
    [a, b], so each one ends where the next left edge begins.

    Empty arrays when b == a; raises as ``integrate`` does.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"quadrature tolerance must be finite and > 0, got {tol!r}")
    if not b > a:
        if b == a:
            return np.empty(0), np.empty(0, dtype=complex)
        raise ValueError("need b > a")
    total_width = b - a

    edges = np.array(sorted({a, b, *(float(p) for p in breakpoints if a < p < b)}))
    lo, hi = edges[:-1], edges[1:]
    if lo.size > _MAX_ACTIVE_PANELS:
        raise ValueError(f"more than {_MAX_ACTIVE_PANELS} seeded panels")

    accepted = []  # (lo, values) of each round's converged panels
    whole = None
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        n = lo.size
        if whole is None:  # round 0 also evaluates the seeded panels whole
            v = _panel_values(f, np.concatenate([lo, lo, mid]),
                              np.concatenate([hi, mid, hi])).astype(complex)
            whole, v = v[:n], v[n:]
        else:
            v = _panel_values(f, np.concatenate([lo, mid]),
                              np.concatenate([mid, hi])).astype(complex)
        left, right = v[:n], v[n:]
        refined = left + right
        err = np.abs(whole - refined)
        budget = np.maximum(tol * (hi - lo) / total_width,
                            _REL_FLOOR * np.abs(refined))
        ok = err <= budget
        accepted.append((lo[ok], refined[ok]))
        bad = ~ok
        if not bad.any():
            break
        if 2 * np.count_nonzero(bad) > _MAX_ACTIVE_PANELS:
            raise QuadratureError(
                f"more than {_MAX_ACTIVE_PANELS} panels short of tolerance {tol:.3e}"
            )
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        whole = np.concatenate([left[bad], right[bad]])
    else:
        residual = float(np.sum(np.abs(whole)))
        if residual > 1e3 * tol:
            raise QuadratureError(
                f"quadrature stalled with error estimate {residual:.3e}"
            )
        accepted.append((lo, whole))

    lo, values = (np.concatenate(v) for v in zip(*accepted))
    order = np.argsort(lo)
    return lo[order], values[order]
