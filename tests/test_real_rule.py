"""The real rule of the public API.

Every public real parameter accepts a finite real value of any numeric type
(int, bool, float, ``np.float32``, ``np.float64``, ``np.int64``,
``Fraction``) within its bounds and then behaves exactly as for the float
it equals; any other value (nan, +-inf, an int too large for a float, a
str, None, a complex of any type) raises ``ValueError`` naming the
parameter.  A call ends in a value, a ``ValueError`` or an
``ArithmeticError``, within a time bound.  A finite value whose result leaves the float range (a tiny wall
distance, a huge comb scale) raises the ``ValueError`` that says so.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsum.casimir import CavityConfig, casimir_force, ground_state_energy
from divsum.coefficients import dirichlet_comb_growth
from divsum.distributions import alternating_series_action
from divsum.mollifiers import Mollifier, mollifier
from divsum.mollifiers import TestFunction as SmoothTF
from divsum.quadrature import integrate, panel_integrals
from divsum.sums import zeta_partial_sum

# the slowest accepted call, a pairing over two period cells, takes about 3 ms
TIME_BOUND_S = 2.0

# the transforms of the unit record leave the drawn value as it is
_UNIT = mollifier(2, 1)
_BUMP = mollifier(0, 4)


def _one(x):
    return np.ones_like(x)


def _panels(*args, **kwargs):
    # arrays as lists, whose repr holds every bit
    return [v.tolist() for v in panel_integrals(_one, *args, **kwargs)]


# (parameter name as the error names it, the call with that parameter drawn)
CALLS = {
    "integrate(tol)": ("tol", lambda v: integrate(_one, 0.0, 1.0, tol=v)),
    "integrate(a)": ("a", lambda v: integrate(_one, v, 1e300)),
    "integrate(b)": ("b", lambda v: integrate(_one, -1e300, v)),
    "panel_integrals(tol)": ("tol", lambda v: _panels(0.0, 1.0, tol=v)),
    "panel_integrals(a)": ("a", lambda v: _panels(v, 1e300)),
    "panel_integrals(b)": ("b", lambda v: _panels(-1e300, v)),
    "TestFunction(lam)": ("dilation factor", lambda v: SmoothTF(Mollifier(0), lam=v)),
    "TestFunction(shift)": ("shift", lambda v: SmoothTF(Mollifier(0), shift=v)),
    "TestFunction(amp)": ("amplitude", lambda v: SmoothTF(Mollifier(0), amp=v)),
    "TestFunction.shifted": ("shift", _UNIT.shifted),
    "TestFunction.dilated": ("dilation factor", _UNIT.dilated),
    "TestFunction.scaled": ("amplitude", _UNIT.scaled),
    "Mollifier.rescaled": ("scale", Mollifier(2).rescaled),
    "mollifier(scale)": ("scale", lambda v: mollifier(4, v)),
    "dirichlet_comb_growth(m)": ("m", dirichlet_comb_growth),
    "CavityConfig(d)": ("d", lambda v: casimir_force(CavityConfig(d=v))),
    "CavityConfig(c)": ("c", lambda v: ground_state_energy(CavityConfig(1.0, c=v))),
    "CavityConfig(hbar)": (
        "hbar", lambda v: ground_state_energy(CavityConfig(1.0, hbar=v))),
    "CavityConfig.si(d)": ("d", lambda v: casimir_force(CavityConfig.si(v))),
    "zeta_partial_sum(s)": ("s", lambda v: zeta_partial_sum(v, 100)),
    "alternating_series_action(shift)": (
        "shift", lambda v: alternating_series_action(_BUMP.shifted(v))),
}

_OUT_OF_RANGE = "is outside the float range"

_ODD = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
        1.7976931348623157e308, 1e300, -1e300, 1e30, -1e30, 1e31, -1e31,
        10**400, -10**400, 2**1024, 2**1024 - 2**970, Fraction(10**400, 3),
        Fraction(1, 3), Fraction(-7, 2), np.float32(0.1), np.float32("inf"),
        np.float64("nan"), np.int64(-3), np.bool_(True), True, False,
        "3", "nan", "", None, 3j, complex(2.0, 0.0), np.complex64(2.0),
        np.complex128(1 + 2j)]


def _values():
    return st.one_of(
        st.floats(), st.floats(-10, 10), st.floats(width=32).map(np.float32),
        st.floats().map(np.float64), st.integers(-10**400, 10**400),
        st.integers(-10, 10), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans(), st.fractions(), st.text(max_size=3), st.none(),
        st.complex_numbers(), st.sampled_from(_ODD))


def _finite_real(value) -> bool:
    if isinstance(value, str) or value is None or np.iscomplexobj(value):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int past the float range
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
    # repr tells a float from np.float32 and holds every bit of either
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return repr(a) == repr(b)


def _check(name, call, value):
    result, elapsed = _outcome(call, value)
    assert elapsed < TIME_BOUND_S, (value, elapsed)
    if not _finite_real(value):
        assert isinstance(result, ValueError), (value, result)
        assert str(result).startswith(f"{name} must be "), (value, result)
        return
    if isinstance(result, ValueError) and not str(result).endswith(_OUT_OF_RANGE):
        assert str(result).startswith(f"{name} must be "), (value, result)
    assert _same(result, _outcome(call, float(value))[0]), (value, result)
    if hasattr(result, "to_json_obj"):
        json.dumps(result.to_json_obj(), allow_nan=False)


@pytest.mark.parametrize("label", sorted(CALLS))
@settings(max_examples=80, deadline=None)
@given(value=_values())
def test_real_parameter(label, value):
    _check(*CALLS[label], value)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), Fraction(1, 2),
                                   np.float32(0.5)])
def test_one_record_for_every_real_type(value):
    assert repr(_UNIT.shifted(value)) == repr(_UNIT.shifted(0.5))
    assert repr(CavityConfig(d=value)) == "CavityConfig(d=0.5, c=1.0, hbar=1.0)"
    assert repr(zeta_partial_sum(value + 1, 100)) == repr(zeta_partial_sum(1.5, 100))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_shift_must_be_finite(value):
    # a nan shift built a test function whose every value was a silent 0
    with pytest.raises(ValueError, match="^shift must be finite$"):
        mollifier(0, 1).shifted(value)
