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
panel bisected in the round before.  When round 0 accepts every seeded
panel, as it does for the ladders and bump pairings in ``distributions``,
the seeded panels are returned at once.  Panel integrals keep the
integrand's dtype, so real integrands give real panels.  The final
reduction is a correctly rounded sum (math.fsum) over the panels, so
results are deterministic for a given input; a panel's last bit still
depends on where its row sits in the batch it was evaluated in.

An integrand may also return one row of values per parameter, shape
(rows, nodes): the rows share one panel layout, a panel is bisected while
any row misses its budget, and a stall reports the worst row's residual.
A ladder whose levels share their nodes, as the jump ladder does in the
bump's own coordinate, is then one adaptive pass.

``gauss_grid`` builds the Gauss node and weight layout on numpy arrays;
the adaptive panels here use it, and so do the fixed grids of the test
oracles in ``tests/oracles.py``.  The plain-float ``panels.kernel_ladder``
maps the same nodes onto its panels itself.
``panel_integrals`` hands out the accepted panels themselves, sorted by
left edge, for callers that read prefix or suffix sums over them or sum
each row; ``panel_sum`` is the correctly rounded sum of one row.

The rule's nodes and weights, the default tolerance, the round and panel
limits and the acceptance test live in the numpy-free ``divsum.panels``,
whose plain-float pass the CLI's ``mollify`` runs; the panel cap is read
from there at call time.
"""

from __future__ import annotations

import math

import numpy as np

from . import panels
from ._checks import real
from .panels import _MAX_ROUNDS, TOLERANCE, QuadratureError, accepts

__all__ = ["QuadratureError", "TOLERANCE", "gauss_grid", "integrate",
           "panel_integrals", "panel_sum"]

# bound on |a| and |b|, far inside the float range: a panel midpoint
# overflows past about 9e307, and a bounded integrand's panel errors before
_MAX_BOUND = 1e300
_NODES = np.array(panels.NODES)
_WEIGHTS = np.array(panels.WEIGHTS)


def gauss_grid(lo, hi):
    """Gauss nodes of the panels [lo, hi], the rule's weights, and half-widths.

    ``lo`` and ``hi`` are arrays of one shape; the nodes of each panel lie
    on a new last axis.  A panel's integral is ``(f(x) @ weights) * half``.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[..., None] + half[..., None] * _NODES, _WEIGHTS, half


def _panel_values(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    x, weights, half = gauss_grid(lo, hi)
    v = np.asarray(f(x.ravel()))
    values = (v.reshape(*v.shape[:-1], *x.shape) @ weights) * half
    if not np.isfinite(values).all():
        raise QuadratureError("integrand is not finite on a panel")
    return values


def panel_sum(values) -> complex:
    """Correctly rounded sum (math.fsum) of one row of panel values."""
    if np.iscomplexobj(values):
        return complex(math.fsum(values.real.tolist()),
                       math.fsum(values.imag.tolist()))
    return complex(math.fsum(values.tolist()))


def integrate(f, a: float, b: float, *, tol: float = TOLERANCE,
              breakpoints=()) -> complex:
    """Integral of a vectorized scalar integrand over [a, b].

    Returns a complex value; real integrands come back with zero imaginary
    part.  Raises ValueError unless tol > 0 and a <= b are finite reals of
    size at most 1e300, or when the breakpoints seed more than
    _MAX_ACTIVE_PANELS panels, and QuadratureError if a panel value is not
    finite or bisection cannot reach the tolerance within the panel cap and
    the round limit.
    """
    _, values = panel_integrals(f, a, b, tol=tol, breakpoints=breakpoints)
    return panel_sum(values)


def panel_integrals(f, a: float, b: float, *, tol: float = TOLERANCE,
                    breakpoints=()) -> tuple:
    """The accepted panels of ``integrate``, sorted by left edge: their left
    edges and integrals, which sum to its value.  The panels tile [a, b],
    so each one ends where the next left edge begins.  The integrals have
    the integrand's dtype: a real integrand gives real panels.

    ``f`` may also return one row per parameter, shape (rows, nodes) for
    nodes x; the integrals then have shape (rows, panels), and a panel is
    accepted only when every row meets its own budget.  When round 0
    accepts every seeded panel, those are returned as they are.

    Empty arrays when b == a; raises as ``integrate`` does, reporting a
    stall with the worst row's residual.
    """
    tol = real(tol, "tol", 0, strict=True)
    a = real(a, "a", -_MAX_BOUND, _MAX_BOUND)
    b = real(b, "b", a, _MAX_BOUND)
    if b == a:
        return np.empty(0), np.empty(0)
    total_width = b - a

    edges = np.array(sorted({a, b, *(float(p) for p in breakpoints if a < p < b)}))
    lo, hi = edges[:-1], edges[1:]
    cap = panels._MAX_ACTIVE_PANELS
    if lo.size > cap:
        raise ValueError(f"more than {cap} seeded panels")

    accepted = []  # (lo, values) of each round's converged panels
    whole = None
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        n = lo.size
        if whole is None:  # round 0 also evaluates the seeded panels whole
            v = _panel_values(f, np.concatenate([lo, lo, mid]),
                              np.concatenate([hi, mid, hi]))
            whole, v = v[..., :n], v[..., n:]
        else:
            v = _panel_values(f, np.concatenate([lo, mid]),
                              np.concatenate([mid, hi]))
        left, right = v[..., :n], v[..., n:]
        refined = left + right
        err = np.abs(whole - refined)
        ok = accepts(err, refined, hi - lo, total_width, tol)
        if ok.ndim > 1:  # rows: every row must meet its budget
            ok = ok.all(axis=0)
        bad = ~ok
        if not bad.any():
            if not accepted:  # round 0: the seeded panels, already in order
                return lo, refined
            accepted.append((lo, refined))
            break
        accepted.append((lo[ok], refined[..., ok]))
        if 2 * np.count_nonzero(bad) > cap:
            raise QuadratureError(f"more than {cap} panels short of tolerance {tol:.3e}")
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        whole = np.concatenate([left[..., bad], right[..., bad]], axis=-1)
    else:
        residual = float(np.abs(whole).sum(axis=-1).max())
        if residual > 1e3 * tol:
            raise QuadratureError(
                f"quadrature stalled with error estimate {residual:.3e}"
            )
        accepted.append((lo, whole))

    lo, values = (np.concatenate(v, axis=-1) for v in zip(*accepted))
    order = np.argsort(lo)
    return lo[order], values[..., order]
