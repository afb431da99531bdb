"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; exact statements use rational
equality with zero tolerance.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from divsum.casimir import CavityConfig, casimir_force, ground_state_energy
from divsum.cli import main
from divsum.coefficients import (
    dirichlet_comb_growth,
    dirichlet_comb_ladder,
    fourier_coefficient_numeric,
)
from divsum.distributions import (
    all_plus_series_action,
    alternating_series_action,
    finite_part_action,
    finite_part_action_epsilon,
    jump_average,
    mollified_limit,
)
from divsum.mollifiers import mollifier
from divsum.sums import (
    alternating_sum_powers,
    bernoulli_numbers,
    functional_equation_residual,
    sum_powers,
)
from oracles import (
    comb_spectral_pairing,
    derivative_dilation_commutation_check,
    ramanujan_identity_check,
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_headline_value_exact(capsys):
    start = time.perf_counter()
    code = main(["sum", "--k", "1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = code == 0 and out == "-1/12\n" and elapsed < 1.0
    ok = ok and sum_powers(1).value == Fraction(-1, 12)
    with capsys.disabled():
        _report(1, ok, "sum --k 1 returns exactly -1/12 in under 1 s")


def test_criterion_02_worked_values_exact(capsys):
    ok = sum_powers(2).value == 0 and sum_powers(3).value == Fraction(1, 120)
    with capsys.disabled():
        _report(2, ok, "sum_powers(2) = 0 and sum_powers(3) = 1/120 exactly")


def test_criterion_03_alternating_base_case(capsys):
    ok = alternating_sum_powers(1).value == Fraction(1, 4)
    with capsys.disabled():
        _report(3, ok, "alternating_sum_powers(1) = 1/4 exactly")


def test_criterion_04_oracle_equivalence(capsys):
    start = time.perf_counter()
    table = bernoulli_numbers(31)
    ok = True
    for k in range(1, 31):
        closed = sum_powers(k).value
        ok &= closed == -table[k + 1] / (k + 1)
        if k % 2 == 0:
            ok &= closed == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    with capsys.disabled():
        _report(4, ok, "sum_powers(k) = -B_{k+1}/(k+1) exactly for k <= 30, "
                       "even k exactly 0, under 5 s")


def test_criterion_05_functional_equation(capsys):
    start = time.perf_counter()
    ok = all(
        functional_equation_residual(k, 10**6) < 1e-8
        for k in range(1, 16, 2)
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    with capsys.disabled():
        _report(5, ok, "functional-equation residual < 1e-8 for odd k <= 15 "
                       "with 1e6-term partial sums, under 30 s")


def test_criterion_06_fourier_coefficient_theorem(capsys):
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        rec = fourier_coefficient_numeric(n)
        ok &= rec.converged and abs(rec.extrapolated - (-1) ** (n - 1) * n) < 1e-6
    for n in range(-4, 1):
        rec = fourier_coefficient_numeric(n)
        ok &= rec.converged and abs(rec.extrapolated) < 1e-6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    with capsys.disabled():
        _report(6, ok, "numerical c_n within 1e-6 of (-1)^(n-1) n for "
                       "1 <= n <= 8 and of 0 for -4 <= n <= 0, under 60 s")


def test_criterion_07_summability_at_origin(capsys):
    ok = True
    for p in (0, 2, 4):
        rec = mollified_limit(alternating_series_action, p)
        ok &= rec.converged and abs(rec.extrapolated - 0.25) < 1e-6
    with capsys.disabled():
        _report(7, ok, "mollified alternating-series pairing -> 0.25 within "
                       "1e-6 for vanishing orders p = 0, 2, 4")


def test_criterion_08_divergence_signatures(capsys):
    comb = dirichlet_comb_ladder(8)
    ok = not comb.converged
    ok &= abs(comb.growth_exponent - 1.0) <= 0.05
    # the Poisson closed form 2 pi m phi(0) against the spectral sum
    for m in (1, 2, 4, 8, 16, 32, 64, 128):
        ok &= abs(dirichlet_comb_growth(m) - comb_spectral_pairing(m)) <= 1e-6

    plus = mollified_limit(all_plus_series_action, 4, levels=8)
    ok &= not plus.converged
    ok &= abs(plus.growth_exponent - 2.0) <= 0.1
    ok &= plus.samples[-1][1].real < 0
    with capsys.disabled():
        _report(8, ok, "Dirichlet comb grows like m (exponent 1 +- 0.05, "
                       "two routes agree within 1e-6); all-plus pairing with "
                       "p=4 grows like -m^2 (exponent 2 +- 0.1)")


def test_criterion_09_representation_equivalence(capsys):
    rng = random.Random(20260810)
    ok = True
    for i in range(20):
        p = rng.choice([0, 2, 4])
        m = rng.choice([1, 2, 3])
        if i % 2 == 0:
            center = math.pi + rng.uniform(-0.3, 0.3)
        else:
            center = rng.uniform(0.7, 2 * math.pi - 0.7)
        amp = rng.uniform(0.5, 2.0)
        tf = mollifier(p, m).shifted(center).scaled(amp)
        a = finite_part_action(tf)
        b = finite_part_action_epsilon(tf)
        ok &= b.converged and abs(a - b.extrapolated) < 1e-6
    with capsys.disabled():
        _report(9, ok, "counterterm and Taylor-remainder evaluations agree "
                       "within 1e-6 on 20 randomized test functions")


def test_criterion_10_jump_average(capsys):
    heaviside = jump_average(lambda t: np.where(np.asarray(t) > 0, 1.0, 0.0))
    sign = jump_average(lambda t: np.sign(np.asarray(t)))
    cosine = jump_average(np.cos)
    ok = heaviside.converged and abs(heaviside.extrapolated - 0.5) < 1e-6
    ok &= sign.converged and abs(sign.extrapolated) < 1e-6
    ok &= cosine.converged and abs(cosine.extrapolated - 1.0) < 1e-6
    with capsys.disabled():
        _report(10, ok, "jump averages: heaviside -> 0.5, sign -> 0, "
                        "cos -> 1, each within 1e-6")


def test_criterion_11_exact_sequence_identities(capsys):
    ok = ramanujan_identity_check(1000)
    for k in range(6):
        ok &= derivative_dilation_commutation_check(k, 2, 50)
    with capsys.disabled():
        _report(11, ok, "shift-and-subtract identity exact for n <= 1000; "
                        "dilation-derivative commutation exact for k <= 5, "
                        "order <= 50")


def test_criterion_12_casimir_toy_model(capsys):
    ok = True
    for d in (0.25, 1.0, 2.0, 10.0):
        cfg = CavityConfig(d=d)
        ok &= abs(ground_state_energy(cfg) * d - (-math.pi / 24)) < 1e-14
        h = 1e-4 * d
        fd = (
            ground_state_energy(CavityConfig(d=d + h))
            - ground_state_energy(CavityConfig(d=d - h))
        ) / (2 * h)
        ok &= abs(casimir_force(cfg) - fd) / casimir_force(cfg) < 1e-6
    with capsys.disabled():
        _report(12, ok, "energy * d = -pi/24 in natural units; force matches "
                        "the finite-difference derivative within 1e-6")
