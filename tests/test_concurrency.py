"""Reentrancy: all operations are pure over immutable values, so concurrent
callers must see exactly the serial results (including the cached series,
which is computed lazily, and the cached c_n records, which eight threads
race to fill from a cold cache)."""

from concurrent.futures import ThreadPoolExecutor

from divsum.coefficients import _coefficient_ladder, fourier_coefficient_numeric
from divsum.distributions import alternating_series_action, mollified_limit
from divsum.series import derivative_at_zero, generating_function_series
from divsum.sums import sum_powers, zeta_negative_oracle


def _work(k: int):
    total = sum_powers(k).value
    oracle = zeta_negative_oracle(k)
    # f^(k-1)(0) / i^(k-1): (-1)^((k-1)/2) f^(k-1)(0) for odd k, 0 for even k
    re, im = derivative_at_zero(generating_function_series(), k - 1)
    assert im == 0
    series = (-1) ** ((k - 1) // 2) * re
    ladder = mollified_limit(alternating_series_action, (k % 3) * 2, levels=4)
    coefficient = fourier_coefficient_numeric(k - 9, levels=4 + k % 5)
    return total, oracle, series, ladder.extrapolated, coefficient


def test_parallel_matches_serial():
    # start from cold caches so lazy initialization races are exercised
    generating_function_series.cache_clear()
    _coefficient_ladder.cache_clear()
    ks = list(range(1, 17))
    serial = [_work(k) for k in ks]
    generating_function_series.cache_clear()
    _coefficient_ladder.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(_work, ks))
    assert serial == parallel
