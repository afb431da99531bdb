"""The integer rule of the public API.

Every public integer parameter accepts an integral value of any numeric
type (int, bool, integral float, ``np.int64``) within its bounds and then
behaves exactly as for the int it equals; any other value, nan and +-inf
included, raises ``ValueError`` naming the parameter.  A call ends in a
value, a ``ValueError`` or an ``ArithmeticError``, within a time bound.  An
integral value whose result leaves the float range (a huge mode index)
raises the ``ValueError`` that says so.
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum.casimir import CavityConfig, mode_wavenumber
from divsum.coefficients import fourier_coefficient_numeric
from divsum.distributions import (
    dirichlet_comb_ladder,
    finite_part_action_epsilon,
    jump_average,
    mollified_limit,
)
from divsum.extrapolation import extrapolate_ladder, richardson_extrapolate
from divsum.mollifiers import Mollifier, mollifier
from divsum.sums import (
    alternating_sum_powers,
    bernoulli_numbers,
    functional_equation_residual,
    sum_powers,
    zeta_negative_oracle,
    zeta_partial_sum,
)

# the slowest accepted call (a 261-entry Bernoulli table) takes about 0.03 s
TIME_BOUND_S = 2.0

_BUMP = mollifier(0, 1).shifted(math.pi)
_CAVITY = CavityConfig(d=1.5)


def _pairing(phi):
    # a cheap pairing with a limit, 0.25 + 1/m^2 on the scale ladder
    return 0.25 + 1.0 / phi.lam**2


# (parameter name as the error names it, the call with that parameter drawn)
CALLS = {
    "sum_powers(k)": ("k", sum_powers),
    "alternating_sum_powers(k)": ("k", alternating_sum_powers),
    "zeta_negative_oracle(k)": ("k", zeta_negative_oracle),
    "functional_equation_residual(k)": (
        "k", lambda v: functional_equation_residual(v, 1000)),
    "bernoulli_numbers(n)": ("n", bernoulli_numbers),
    "fourier_coefficient_numeric(n)": ("n", fourier_coefficient_numeric),
    "fourier_coefficient_numeric(levels)": (
        "levels", lambda v: fourier_coefficient_numeric(3, v)),
    "finite_part_action_epsilon(levels)": (
        "levels", lambda v: finite_part_action_epsilon(_BUMP, v)),
    "mollified_limit(levels)": ("levels", lambda v: mollified_limit(_pairing, 2, v)),
    "jump_average(levels)": ("levels", lambda v: jump_average(np.cos, 0, v)),
    "dirichlet_comb_ladder(levels)": ("levels", dirichlet_comb_ladder),
    "mode_wavenumber(n)": ("mode index", lambda v: mode_wavenumber(v, _CAVITY)),
    "richardson_extrapolate(first_order)": (
        "first_order", lambda v: richardson_extrapolate([1.5, 1.25, 1.125, 1.0625], v)),
    "extrapolate_ladder(first_order)": (
        "first_order", lambda v: extrapolate_ladder([], [], v)),
    # the record's repr tells the int 2 from 2.0 and np.int64(2)
    "Mollifier(vanishing_order)": ("vanishing order", lambda v: repr(Mollifier(v))),
    "mollifier(vanishing_order)": (
        "vanishing order", lambda v: repr(mollifier(v, 2))),
    "mollified_limit(vanishing_order)": (
        "vanishing order", lambda v: mollified_limit(_pairing, v, 3)),
    "jump_average(vanishing_order)": (
        "vanishing order", lambda v: jump_average(np.cos, v, 3)),
}
# terms are drawn at most 10**5: 10**8 accepted terms take about a second
TERMS_CALLS = {
    "zeta_partial_sum(terms)": ("terms", lambda v: zeta_partial_sum(2.0, v)),
    "functional_equation_residual(terms)": (
        "terms", lambda v: functional_equation_residual(3, v)),
}

_OUT_OF_RANGE = "is outside the float range"

_ODD = [math.nan, math.inf, -math.inf, 10**400, -10**400, 2.5, -0.5,
        np.float64(3.0), np.float64(3.5), np.bool_(True), "3", None, 3j]


def _values(ints, floats):
    return st.one_of(ints, ints.map(float), ints.map(np.int64), st.booleans(),
                     floats, st.sampled_from(_ODD))


def _integral(value) -> bool:
    try:
        return int(value) == value
    except (ValueError, OverflowError, TypeError):  # nan, inf, "3", None, 3j
        return False


def _outcome(call, value):
    """The call's result or the exception it raised, and its duration."""
    start = time.perf_counter()
    try:
        result = call(value)
    except (ValueError, ArithmeticError) as exc:
        result = exc
    return result, time.perf_counter() - start


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _check(name, call, value):
    result, elapsed = _outcome(call, value)
    assert elapsed < TIME_BOUND_S, (value, elapsed)
    out_of_range = _integral(value) and str(result).endswith(_OUT_OF_RANGE)
    if isinstance(result, ValueError) and not out_of_range:
        assert str(result).startswith(f"{name} must be "), (value, result)
    if not _integral(value):
        assert isinstance(result, ValueError), (value, result)
        return
    assert _same(result, _outcome(call, int(value))[0]), (value, result)
    if hasattr(result, "to_json_obj"):
        json.dumps(result.to_json_obj())


@pytest.mark.parametrize("label", sorted(CALLS))
@settings(max_examples=80, deadline=None)
@given(value=_values(st.integers(-300, 300), st.floats()))
def test_integer_parameter(label, value):
    _check(*CALLS[label], value)


@pytest.mark.parametrize("label", sorted(TERMS_CALLS))
@settings(max_examples=80, deadline=None)
@given(value=_values(st.integers(-5, 10**5), st.floats(max_value=1e5)))
def test_terms_parameter(label, value):
    _check(*TERMS_CALLS[label], value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_one_record_for_every_integral_type(value):
    assert sum_powers(value) == sum_powers(3)
    assert json.dumps(sum_powers(value).to_json_obj()) == (
        '{"k": 3, "kind": "powers_all_plus", "value": "1/120", "method": "closed_form"}')
