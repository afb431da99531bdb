"""Closed-form regularized sums of 1^k + 2^k + ... and 1^k - 2^k + 3^k - ...

The master formula evaluated here is

    1^k + 2^k + 3^k + ...  :=  (1 / i^{k-1}) * (1 / (1 - 2^{k+1})) * f^{(k-1)}(0)

with f(t) = e^{it} / (1 + e^{it})^2.  The alternating sum drops the
1/(1 - 2^{k+1}) factor.  Since

    f(t) = 1 / (4 cos^2(t/2)) = (1/2) d/dt tan(t/2)

and tan x = sum_k T_k x^k / k! with integer tangent numbers T_k (zero for
even k), the derivative is f^{(k-1)}(0) = T_k / 2^{k+1}.  For odd k,
i^{k-1} = (-1)^{(k-1)/2}, so every value is an exact rational built from
one integer, computed by the Knuth-Buckholtz recurrence.  The exact
Taylor series of f in ``divsum.series`` is the paper's own route to the
same derivatives; the tests compare the two.  Independent oracles:
Bernoulli numbers via the defining recurrence, zeta(-k) = -B_{k+1}/(k+1),
and the classical functional-equation identity checked in floating point.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from ._checks import integer, real

__all__ = [
    "SumKind",
    "RegularizedSum",
    "sum_powers",
    "alternating_sum_powers",
    "bernoulli_numbers",
    "zeta_negative_oracle",
    "zeta_partial_sum",
    "functional_equation_residual",
]

# largest k whose zeta(-k) is a finite float; zeta(-261) overflows.  It also
# bounds the Bernoulli table B_0..B_n, at n = k + 1, whose n^2/2 products of
# a binomial with an integer of O(n log n) bits cost about n^2.2 up to here
# and n^3.5 far past it
_MAX_FLOAT_NEG_K = 260

# largest k of the exact power sums, whose recurrence costs about k^3
_MAX_SUM_K = 200

# the terms are summed as the pieces of at most _SUM_LEAF terms that numpy's
# pairwise summation splits them into, so one 512 KiB buffer is live at a
# time.  numpy adds a block of at most _SUM_BLOCK terms without a split
_SUM_LEAF = 1 << 16
_SUM_BLOCK = 128
# _SUM_MARGIN times a bound on the real sum of some terms bounds the float
# sum numpy forms of them: each power is within a few ulps, and numpy nests
# the additions about 45 deep at 10**8 terms (25 in a block, 20 down the
# tree), so both roundings stay below 2^-40 relative
_SUM_MARGIN = 1.0 + 2.0**-20
# more terms buy nothing (the check's residual is already at its rounding
# floor at 10**6) and cost about a second per 10**8
_MAX_TERMS = 10**8


class SumKind(str, enum.Enum):
    POWERS_ALL_PLUS = "powers_all_plus"
    POWERS_ALTERNATING = "powers_alternating"


class RegularizedSum(namedtuple("RegularizedSum", "value k kind")):
    """Exact regularized value of a divergent power sum: the Fraction
    ``value`` assigned to the series of ``kind`` with exponent ``k``.

    A named tuple, so that the exact subcommands need not import the
    dataclass module; it compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "kind": self.kind.value,
            "value": str(self.value),
            "method": "closed_form",
        }


def _alternating_value(k: int) -> Fraction:
    """f^{(k-1)}(0) / i^{k-1} = (-1)^{(k-1)/2} T_k / 2^{k+1}; 0 for even k.

    T_k comes from the Knuth-Buckholtz recurrence (Math. Comp. 21, 1967):
    after the passes below, t[n] = T_{2n-1}.  The callers check
    1 <= k <= 200; k = 0 is the series 1 + 1 + 1 + ..., for which the
    method is not defined.
    """
    if k % 2 == 0:
        return Fraction(0)
    n = (k + 1) // 2
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (n - 1) * t[n], 2 ** (k + 1))


def sum_powers(k: int) -> RegularizedSum:
    """Exact value assigned to 1^k + 2^k + 3^k + ... for 1 <= k <= 200."""
    k = integer(k, "k", 1, _MAX_SUM_K)
    value = _alternating_value(k) / (1 - 2 ** (k + 1))
    return RegularizedSum(value=value, k=k, kind=SumKind.POWERS_ALL_PLUS)


def alternating_sum_powers(k: int) -> RegularizedSum:
    """Exact value assigned to 1^k - 2^k + 3^k - ... for 1 <= k <= 200.

    Equals (1 - 2^{k+1}) times ``sum_powers(k)``.
    """
    k = integer(k, "k", 1, _MAX_SUM_K)
    return RegularizedSum(value=_alternating_value(k), k=k,
                          kind=SumKind.POWERS_ALTERNATING)


def bernoulli_numbers(n: int) -> tuple:
    """Bernoulli numbers B_0..B_n, 0 <= n <= 261, via sum_{j<=m} C(m+1, j) B_j = 0.

    The recurrence fixes B_1 = -1/2; odd indices >= 3 vanish.  It runs in
    integers: by von Staudt-Clausen every denominator divides the product
    D of the primes <= n + 1, so D B_m is an integer and the division by
    m + 1 is exact.  Each row of binomials is the previous row by Pascal's
    rule, so the products with D B_j are the only big-integer work.
    """
    n = integer(n, "n", 0, _MAX_FLOAT_NEG_K + 1)
    denom = math.prod(p for p in range(2, n + 2)
                      if all(p % q for q in range(2, math.isqrt(p) + 1)))
    nums = [denom]
    row = [1, 1]
    for m in range(1, n + 1):
        row = [1, *map(add, row, row[1:]), 1]  # C(m + 1, j), Pascal's rule
        nums.append(-sum(map(mul, row, nums)) // (m + 1))
    return tuple(Fraction(v, denom) for v in nums)


def zeta_negative_oracle(k: int) -> Fraction:
    """zeta(-k) = -B_{k+1} / (k+1), exact, for integer 1 <= k <= 260."""
    k = integer(k, "k", 1, _MAX_FLOAT_NEG_K)
    table = bernoulli_numbers(k + 1)
    return -table[k + 1] / (k + 1)


def zeta_partial_sum(s: float, terms: int) -> float:
    """zeta(s) for s > 1 by direct summation plus the integral tail bound.

    sum_{n<=N} n^{-s} + N^{1-s}/(s-1); the neglected remainder is below
    N^{-s}/2, i.e. < 1e-12 for N = 1e6 and s >= 2.  The sum is the one
    np.sum over all N powers would give, bit for bit, evaluated piece by
    piece down numpy's pairwise tree, so that no piece holds more than
    _SUM_LEAF terms.  N is capped at _MAX_TERMS, which bounds the time.

    Terms are skipped only where a bound proves that they leave the rounded
    sum unchanged, so the bits are those of summing all of them.  A float
    x + r rounds to x when 0 <= r < ulp(x)/2, and a float sum of positive
    terms is at least its largest term.  So a right part of numpy's tree is
    dropped when _SUM_MARGIN times its count times its first term is below
    an eighth of ulp(a/2), where a is the left part's first term: the
    eighth leaves room for powers that round to subnormals, and that floor
    must be a normal float.  And when sum_{n>=2} n^{-s} <= 2^{-s} (1 +
    2/(s-1)) is, with the margin, at most half an ulp of 1 (from s = 54 on),
    every sum that holds n = 1 rounds to 1.0 however numpy groups the rest,
    and no numpy is loaded.
    """
    s = real(s, "s", 1, strict=True)
    terms = integer(terms, "terms", 10, _MAX_TERMS)
    tail = terms ** (1.0 - s) / (s - 1.0)
    if _SUM_MARGIN * 2.0 ** -s * (1.0 + 2.0 / (s - 1.0)) <= 2.0 ** -53:
        return 1.0 + tail
    import numpy as np  # the exact routes in this module need no arrays

    def tree_sum(start: int, count: int) -> float:
        """sum of n^{-s} for start <= n < start + count, as np.sum adds it."""
        if count > _SUM_BLOCK:
            # numpy's add-reduce over a contiguous float64 array is
            # pairwise_sum, which splits any count above its 128-term block
            # at half the count rounded down to a multiple of its 8-way
            # unroll and adds the two halves' sums: a fixed tree, so the
            # pieces reproduce its sum exactly (the bitwise tests hold this
            # to one np.sum over all the terms)
            half = count // 2
            half -= half % 8
            floor = math.ulp(start ** -s / 2) / 8
            if (floor >= sys.float_info.min
                    and _SUM_MARGIN * count * (start + half) ** -s < floor):
                return tree_sum(start, half)
            if count > _SUM_LEAF:
                return tree_sum(start, half) + tree_sum(start + half, count - half)
        # in place: the same ufunc as n ** (-s) in one buffer
        n = np.arange(start, start + count, dtype=np.float64)
        return float(np.sum(np.power(n, -s, out=n)))

    return tree_sum(1, terms) + tail


def functional_equation_residual(k: int, terms: int = 10**6) -> float:
    """| zeta(-k) - 2 (2 pi)^{-(k+1)} sin(-k pi/2) k! zeta(k+1) | / max(1, |zeta(-k)|).

    The right-hand side uses the direct series for zeta(k+1), keeping the
    check independent of the Bernoulli table behind ``zeta_negative_oracle``.
    The residual is relative once |zeta(-k)| > 1 (odd k >= 17), so one
    tolerance serves every k whose zeta(-k) is a finite float,
    1 <= k <= 260; any other k is rejected.
    """
    terms = integer(terms, "terms", 10, _MAX_TERMS)
    k = integer(k, "k", 1, _MAX_FLOAT_NEG_K)
    lhs = float(zeta_negative_oracle(k))
    if k % 2 == 0:
        rhs = 0.0  # sin(-k pi/2) = 0 exactly
    else:
        # k! / (2 pi)^{k+1} as a running product: no factorial overflow, and
        # every partial product stays below max(1, |zeta(-k)|)
        scale = 1.0 / math.tau
        for j in range(1, k + 1):
            scale *= j / math.tau
        sine = (-1) ** ((k + 1) // 2)  # sin(-k pi/2) for odd k
        rhs = 2.0 * sine * scale * zeta_partial_sum(k + 1, terms)
    return abs(lhs - rhs) / max(1.0, abs(lhs))
