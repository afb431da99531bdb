"""The Gauss panel rule on plain floats, and the scale-ladder kernel pass
that the CLI runs with it.  This module loads no numpy.

It is the one home of what ``divsum.quadrature`` and ``divsum.mollifiers``
share with the pass: the 15-point rule's nodes and weights, the default
tolerance, the round and panel limits, a panel's acceptance test, the
bump's grading and the vanishing orders.  The panel cap and the grading are
read at call time, here and there, so that one patch reaches both passes.

``kernel_ladder`` is ``distributions.jump_average`` for a kernel of one
float: the same seeded panels, bisection and acceptance, with each panel
row the correctly rounded sum (math.fsum) of its weighted node values
times the half-width, and each sample the correctly rounded sum of its
row.  So a panel's value does not depend on the panels beside it, and the
bump's symmetry holds exactly: an odd kernel gives samples of exactly 0.
Its last bits follow libm's ``exp``, where numpy's follow its CPU dispatch;
the two passes agree to a few ulps of max(1, |sample|).
"""

from __future__ import annotations

import math

from ._checks import integer
from .coefficients import _BUMP_MASSES
from .extrapolation import EpsilonLimit, _scale_ladder, _scale_limit

__all__ = ["QuadratureError", "TOLERANCE", "kernel_ladder"]

TOLERANCE = 1e-10  # default absolute tolerance
GAUSS_ORDER = 15
_MAX_ROUNDS = 44
# cap on the panels seeded, and on the panels bisected in one round; one
# integrand call then takes at most 3 * 2^14 * GAUSS_ORDER = 737,280 nodes
# (round 0: every seeded panel whole and halved).  Normal use stays below 100
_MAX_ACTIVE_PANELS = 1 << 14
_REL_FLOOR = 1e-14
# the GAUSS_ORDER-point Gauss-Legendre rule on [-1, 1], to the bit of
# numpy.polynomial.legendre.leggauss(15), whose import it saves.  The rule
# is symmetric: its nodes and weights from the middle node 0 outward
_HALF_NODES = [float.fromhex(h) for h in (
    "0x0.0p+0", "0x1.9c0ba62ef04b5p-3", "0x1.939c69257d6b6p-2",
    "0x1.245676f08f3a4p-1", "0x1.72e6e181ab3c4p-1", "0x1.b248221fffd63p-1",
    "0x1.dfe24c4f8b447p-1", "0x1.f9da27c32e6d0p-1")]
_HALF_WEIGHTS = [float.fromhex(h) for h in (
    "0x1.9ee1575f9c980p-3", "0x1.96633f1fd02cfp-3", "0x1.7d41fa76dc267p-3",
    "0x1.5484f30a86ed3p-3", "0x1.1dd73b4963165p-3", "0x1.b6ec9635f1120p-4",
    "0x1.2038260b5d03ap-4", "0x1.f7dc7227a2908p-6")]
NODES = [-x for x in _HALF_NODES[:0:-1]] + _HALF_NODES
WEIGHTS = _HALF_WEIGHTS[:0:-1] + _HALF_WEIGHTS

VANISHING_ORDERS = (0, 2, 4)
# interior edges, in base coordinates, of the panels that bisection accepts
# for t^p psi(t) paired with the scale ladders' kernels at the default
# tolerance (p = 0, 2, 4; m = 2 to 1024).  Seeded as breakpoints, they are
# all evaluated in the first adaptive round instead of being reached one
# bisection at a time; a step against the p = 4 bump still splits the two
# outermost panels in a second round
_BUMP_GRADING = (0.0, *(s * b for b in (0.5, 0.75, 0.875) for s in (1.0, -1.0)))


class QuadratureError(ArithmeticError):
    """Refinement cannot reach the requested tolerance: the integrand is not
    finite, the active panels exceed their cap, or the rounds run out."""


def accepts(err, refined, width, total, tol):
    """Whether a panel of ``width`` out of ``total`` meets its budget,
    max(tol width / total, _REL_FLOOR |refined|), with ``err`` the gap
    between its whole value and its ``refined`` two halves.  Floats give a
    bool, and arrays an elementwise array of the same decisions."""
    return (err <= tol * (width / total)) | (err <= _REL_FLOOR * abs(refined))


def checked_vanishing_order(p) -> int:
    """``p`` as an int, for one of VANISHING_ORDERS; else ValueError."""
    p = integer(p, "vanishing order")
    if p not in VANISHING_ORDERS:
        raise ValueError(f"vanishing order must be one of {VANISHING_ORDERS}")
    return p


def _bump(t: float, p: int) -> float:
    """t^p exp(-1/(1 - t^2)) / C_p, as ``Mollifier(p).value`` forms it: t^p
    by squaring, so that the value at -t is the value at t."""
    if not abs(t) < 1.0:
        return 0.0
    e = math.exp(-1.0 / (1.0 - t * t))
    if p:
        s = t * t
        e = (s if p == 2 else s * s) * e
    return e / _BUMP_MASSES[p]


def kernel_ladder(f, vanishing_order: int, levels: int) -> EpsilonLimit:
    """<f, phi_m> on the scale ladder m = 2, 4, 8, ... of the bump of the
    given vanishing order, extrapolated as ``distributions.jump_average``
    does, for a kernel f of one float: the integral of f(u / m) phi(u) over
    [-1, 1] for each m, as one adaptive pass with a row per m on the bump's
    grading and the edge u = 0.  Raises as ``jump_average`` does."""
    scales = _scale_ladder(levels)
    p = checked_vanishing_order(vanishing_order)
    inv_m = [1.0 / m for m in scales]
    cap = _MAX_ACTIVE_PANELS

    def rows(lo, hi):
        """The panel's value in every row."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = [(u, w, _bump(u, p)) for u, w in
                 ((mid + half * x, w) for x, w in zip(NODES, WEIGHTS))]
        out = [math.fsum([w * (f(r * u) * phi) for u, w, phi in nodes]) * half
               for r in inv_m]
        if not all(map(math.isfinite, out)):
            raise QuadratureError("integrand is not finite on a panel")
        return out

    edges = sorted({-1.0, 1.0, *(b for b in (0.0, *_BUMP_GRADING) if -1.0 < b < 1.0)})
    if len(edges) - 1 > cap:
        raise ValueError(f"more than {cap} seeded panels")
    # each active panel: lo, hi, and its whole value per row
    active = [(lo, hi, rows(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    accepted = [[] for _ in scales]  # the accepted panel values of each row
    for _ in range(_MAX_ROUNDS):
        bisected = []
        for lo, hi, whole in active:
            mid = 0.5 * (lo + hi)
            left, right = rows(lo, mid), rows(mid, hi)
            refined = [a + b for a, b in zip(left, right)]
            if all(accepts(abs(w - r), r, hi - lo, 2.0, TOLERANCE)
                   for w, r in zip(whole, refined)):
                for row, r in zip(accepted, refined):
                    row.append(r)
            else:
                bisected += [(lo, mid, left), (mid, hi, right)]
        if not bisected:
            break
        if len(bisected) > cap:
            raise QuadratureError(
                f"more than {cap} panels short of tolerance {TOLERANCE:.3e}")
        active = bisected
    else:
        residual = max(math.fsum(abs(whole[i]) for *_, whole in active)
                       for i in range(len(scales)))
        if residual > 1e3 * TOLERANCE:
            raise QuadratureError(
                f"quadrature stalled with error estimate {residual:.3e}")
        for _, _, whole in active:
            for row, w in zip(accepted, whole):
                row.append(w)
    return _scale_limit(scales, [complex(math.fsum(row)) for row in accepted])
