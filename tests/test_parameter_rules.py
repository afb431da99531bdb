"""The integer and real rules of the public API, checked from one table.

A public int parameter takes an integral value of any numeric type, and a
float parameter a finite real one, within its bounds, and then gives the
repr it gives for the int or float the value equals; any other value raises
ValueError naming the parameter.  A call ends in a value, a ValueError (which
may say the result left the float range) or an ArithmeticError within a time
bound.  Each annotated int or float public parameter has a row of its rule.
A value is checked once, where it enters: evaluating a test function calls
no rule, and a pairing only those of its parameters and of the quadrature and
ladder it calls.
"""

import inspect
import json
import math
import time
from collections import Counter, namedtuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsum import (casimir, coefficients, distributions, extrapolation, mollifiers,
                    quadrature, sums)
from divsum.casimir import (CavityConfig, angular_frequency, casimir_force,
                            ground_state_energy, mode_wavenumber)
from divsum.coefficients import (dirichlet_comb_growth, dirichlet_comb_ladder,
                                 fourier_coefficient_numeric)
from divsum.distributions import (alternating_series_action, finite_part_action,
                                  finite_part_action_epsilon, jump_average, mollified_limit)
from divsum.extrapolation import extrapolate_ladder, richardson_extrapolate
from divsum.mollifiers import Mollifier, TestFunction as SmoothTF, bump_moment, mollifier
from divsum.quadrature import integrate, panel_integrals
from divsum.sums import (alternating_sum_powers, bernoulli_numbers,
                         functional_equation_residual, sum_powers, zeta_negative_oracle,
                         zeta_partial_sum)

TIME_BOUND_S = 2.0  # the slowest accepted call, a 261-entry Bernoulli table, takes 0.03 s

# every row meets each of these values
_ODD = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
        1.7976931348623157e308, 1e308, 1e300, -1e300, 1e30, -1e30, 1e31, -1e31,
        10**400, -10**400, 2**1024, 2**1024 - 2**970, Fraction(10**400, 3),
        Fraction(1, 3), Fraction(-7, 2), 2.5, -0.5, np.float32(0.1),
        np.float32("inf"), np.float64(3.0), np.float64(3.5), np.float64("nan"),
        np.int64(-3), np.bool_(True), True, False, "3", "nan", "", None, 3j,
        complex(2.0, 0.0), np.complex64(2.0), np.complex128(1 + 2j), Decimal("NaN"),
        Decimal("sNaN"), Decimal("1e400"), Decimal("2.5"), Decimal("3")]


def _values(ints, floats, *more):
    return st.one_of(ints, ints.map(float), ints.map(np.int64), st.booleans(),
                     floats, *more, st.sampled_from(_ODD))


def _integer(value):
    """The int an integral value equals; None for any other value."""
    try:
        return int(value) if not np.iscomplexobj(value) and int(value) == value else None
    except (ValueError, OverflowError, TypeError):  # nan, inf, "3", None, 3j
        return None


def _real(value):
    """The float a finite real value equals; None for any other value."""
    if isinstance(value, str) or value is None or np.iscomplexobj(value):
        return None
    try:
        return float(value) if math.isfinite(float(value)) else None
    except (OverflowError, ValueError):  # an int past the float range, a signaling nan
        return None


# a rule: the annotation of its parameters, the values drawn for them, and
# the number a value in the rule equals (None outside the rule)
Rule = namedtuple("Rule", "annotation values number")
INT = Rule(int, _values(st.integers(-300, 300), st.floats()), _integer)
# terms are drawn at most 10**5: 10**8 accepted terms take about a second
TERMS = Rule(int, _values(st.integers(-5, 10**5), st.floats(max_value=1e5)), _integer)
FLOAT = Rule(float, _values(
    st.integers(-10, 10), st.floats(), st.floats(-10, 10),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-10**400, 10**400), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.fractions(), st.text(max_size=3), st.none(), st.complex_numbers()), _real)

_BUMP, _CAVITY = mollifier(0, 1).shifted(math.pi), CavityConfig(d=1.5)
_UNIT = mollifier(2, 1)  # its transforms leave the drawn value as it is
_WIDE = mollifier(0, 1).dilated(1 / (13 * math.tau))


def _pairing(phi):
    # a cheap pairing with a limit, 0.25 + 1/m^2 on the scale ladder
    return 0.25 + 1.0 / phi.lam**2


def _panels(*args, **kwargs):
    # arrays as lists, whose repr holds every bit
    return [v.tolist() for v in panel_integrals(np.ones_like, *args, **kwargs)]


# label: (rule, parameter name as the error names it, the call with it drawn)
ROWS = {
    "sum_powers(k)": (INT, "k", sum_powers),
    "alternating_sum_powers(k)": (INT, "k", alternating_sum_powers),
    "zeta_negative_oracle(k)": (INT, "k", zeta_negative_oracle),
    "functional_equation_residual(k)": (
        INT, "k", lambda v: functional_equation_residual(v, 1000)),
    "functional_equation_residual(terms)": (
        TERMS, "terms", lambda v: functional_equation_residual(3, v)),
    "bernoulli_numbers(n)": (INT, "n", bernoulli_numbers),
    "zeta_partial_sum(s)": (FLOAT, "s", lambda v: zeta_partial_sum(v, 100)),
    "zeta_partial_sum(terms)": (TERMS, "terms", lambda v: zeta_partial_sum(2.0, v)),
    "fourier_coefficient_numeric(n)": (INT, "n", fourier_coefficient_numeric),
    "fourier_coefficient_numeric(levels)": (
        INT, "levels", lambda v: fourier_coefficient_numeric(3, v)),
    "dirichlet_comb_growth(m)": (FLOAT, "m", dirichlet_comb_growth),
    "dirichlet_comb_ladder(levels)": (INT, "levels", dirichlet_comb_ladder),
    "finite_part_action_epsilon(levels)": (
        INT, "levels", lambda v: finite_part_action_epsilon(_BUMP, v)),
    "mollified_limit(levels)": (INT, "levels", lambda v: mollified_limit(_pairing, 2, v)),
    "mollified_limit(vanishing_order)": (
        INT, "vanishing order", lambda v: mollified_limit(_pairing, v, 3)),
    "jump_average(levels)": (INT, "levels", lambda v: jump_average(np.cos, 0, v)),
    "jump_average(vanishing_order)": (
        INT, "vanishing order", lambda v: jump_average(np.cos, v, 3)),
    "alternating_series_action(shift)": (
        FLOAT, "shift", lambda v: alternating_series_action(mollifier(0, 4).shifted(v))),
    "richardson_extrapolate(first_order)": (
        INT, "first_order", lambda v: richardson_extrapolate([1.5, 1.25, 1.125, 1.0625], v)),
    "extrapolate_ladder(first_order)": (
        INT, "first_order", lambda v: extrapolate_ladder([], [], v)),
    "mode_wavenumber(n)": (INT, "mode index", lambda v: mode_wavenumber(v, _CAVITY)),
    "angular_frequency(n)": (INT, "mode index", lambda v: angular_frequency(v, _CAVITY)),
    "CavityConfig(d)": (FLOAT, "d", lambda v: casimir_force(CavityConfig(d=v))),
    "CavityConfig(c)": (FLOAT, "c", lambda v: ground_state_energy(CavityConfig(1.0, c=v))),
    "CavityConfig(hbar)": (
        FLOAT, "hbar", lambda v: ground_state_energy(CavityConfig(1.0, hbar=v))),
    "CavityConfig.si(d)": (FLOAT, "d", lambda v: casimir_force(CavityConfig.si(v))),
    "Mollifier(vanishing_order)": (INT, "vanishing order", Mollifier),
    "Mollifier.rescaled(m)": (FLOAT, "scale", Mollifier(2).rescaled),
    "mollifier(vanishing_order)": (INT, "vanishing order", lambda v: mollifier(v, 2)),
    "mollifier(scale)": (FLOAT, "scale", lambda v: mollifier(4, v)),
    "bump_moment(j)": (INT, "j", bump_moment),
    "TestFunction(lam)": (FLOAT, "dilation factor", lambda v: SmoothTF(Mollifier(), lam=v)),
    "TestFunction(shift)": (FLOAT, "shift", lambda v: SmoothTF(Mollifier(), shift=v)),
    "TestFunction(amp)": (FLOAT, "amplitude", lambda v: SmoothTF(Mollifier(), amp=v)),
    "TestFunction.shifted(a)": (FLOAT, "shift", _UNIT.shifted),
    "TestFunction.dilated(lam)": (FLOAT, "dilation factor", _UNIT.dilated),
    "TestFunction.scaled(amp)": (FLOAT, "amplitude", _UNIT.scaled),
    "TestFunction.local(pole)": (FLOAT, "pole", lambda v: _UNIT.local(v, 1)(0.25).tolist()),
    "TestFunction.local(order)": (INT, "order", lambda v: _UNIT.local(0.5, v)(0.25).tolist()),
    # over [0, 2], where tol times a panel's width can pass the float range
    "integrate(tol)": (FLOAT, "tol", lambda v: integrate(np.ones_like, 0.0, 2.0, tol=v)),
    "integrate(a)": (FLOAT, "a", lambda v: integrate(np.ones_like, v, 1e300)),
    "integrate(b)": (FLOAT, "b", lambda v: integrate(np.ones_like, -1e300, v)),
    "panel_integrals(tol)": (FLOAT, "tol", lambda v: _panels(0.0, 2.0, tol=v)),
    "panel_integrals(a)": (FLOAT, "a", lambda v: _panels(v, 1e300)),
    "panel_integrals(b)": (FLOAT, "b", lambda v: _panels(-1e300, v)),
}
# results, not parameters: test_extrapolation.py judges them by the sample rule
EXEMPT = {"EpsilonLimit(error_estimate)"}


def _outcome(call, value):
    """The call's result or the exception it raised, and its duration."""
    start = time.perf_counter()
    try:
        result = call(value)
    except (ValueError, ArithmeticError) as exc:
        result = exc
    return result, time.perf_counter() - start


def _check(rule, name, call, value):
    result, elapsed = _outcome(call, value)
    assert elapsed < TIME_BOUND_S, (value, elapsed)
    number = rule.number(value)
    assert number is not None or isinstance(result, ValueError), (value, result)
    out_of_range = number is not None and str(result).endswith("outside the float range")
    if isinstance(result, ValueError) and not out_of_range:
        assert str(result).startswith(f"{name} must be "), (value, result)
    if number is not None:
        # repr tells 2 from 2.0, np.float32 from float and one error from another
        assert repr(result) == repr(_outcome(call, number)[0]), (value, result)
        if hasattr(result, "to_json_obj"):
            json.dumps(result.to_json_obj(), allow_nan=False)


def _rule_test(rule):
    """The test of every row of a rule, on each odd value and 80 drawn ones."""
    @given(value=rule.values)
    def test(label, value):
        _check(*ROWS[label], value)
    for value in _ODD:
        test = example(value=value)(test)
    labels = [label for label, row in ROWS.items() if row[0] is rule]
    return pytest.mark.parametrize("label", labels)(
        settings(max_examples=80, deadline=None)(test))


test_integer_parameter = _rule_test(INT)
test_terms_parameter = _rule_test(TERMS)
test_real_parameter = _rule_test(FLOAT)


def _annotated():
    """label: int or float, for each parameter so annotated of what a module
    but divsum.series (the exact oracle) exports, and of its public methods."""
    found = {}
    for module in (casimir, coefficients, distributions, extrapolation, mollifiers,
                   quadrature, sums):
        for name in module.__all__:
            obj = getattr(module, name)
            methods = vars(obj) if inspect.isclass(obj) else ()
            calls = [(name, obj)] + [(f"{name}.{k}", getattr(obj, k)) for k in methods
                                     if inspect.isfunction(getattr(obj, k)) and k[0] != "_"]
            for label, call in calls:
                try:
                    params = inspect.signature(call, eval_str=True).parameters.values()
                except (TypeError, ValueError):  # a constant, an exception class
                    continue
                found.update((f"{label}({p.name})", p.annotation) for p in params
                             if p.annotation in (int, float))
    return found


def test_every_annotated_number_has_a_row():
    unmatched = {label for label, annotation in _annotated().items()
                 if label not in ROWS or ROWS[label][0].annotation != annotation}
    assert unmatched == EXEMPT


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_one_record_for_every_integral_type(value):
    assert sum_powers(value) == sum_powers(3)
    assert json.dumps(sum_powers(value).to_json_obj()) == (
        '{"k": 3, "kind": "powers_all_plus", "value": "1/120", "method": "closed_form"}')


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), Fraction(1, 2), np.float32(0.5)])
def test_one_record_for_every_real_type(value):
    assert repr(_UNIT.shifted(value)) == repr(_UNIT.shifted(0.5))
    assert repr(CavityConfig(d=value)) == "CavityConfig(d=0.5, c=1.0, hbar=1.0)"
    assert repr(zeta_partial_sum(value + 1, 100)) == repr(zeta_partial_sum(1.5, 100))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_shift_must_be_finite(value):
    # a nan shift built a test function whose every value was a silent 0
    with pytest.raises(ValueError, match="^shift must be finite$"):
        mollifier(0, 1).shifted(value)


def _counting(check, calls):
    def counted(value, name, *args, **kwargs):
        calls[name] += 1
        return check(value, name, *args, **kwargs)
    return counted


def _evaluations():
    x = np.array([math.pi - 0.1, 0.0])
    for phi in (_BUMP, _UNIT.base):  # a TestFunction and a Mollifier
        for f in (phi.value, phi.deriv, phi.deriv2):
            f(x)


@pytest.mark.parametrize("call, names", [
    (_evaluations, {}),
    (lambda: finite_part_action(_BUMP), {"tol": 1, "a": 1, "b": 1}),
    (lambda: alternating_series_action(_BUMP), {"shift": 1, "tol": 1, "a": 1, "b": 1}),
    # support +-13 * 2pi, whose lower edge floor() puts in cell -14: one
    # remainder integral per pole cell and no integral of an empty interval
    (lambda: alternating_series_action(_WIDE), {"shift": 1, "tol": 26, "a": 26, "b": 26}),
    (lambda: finite_part_action_epsilon(_BUMP),
     {"levels": 1, "tol": 1, "a": 1, "b": 1, "first_order": 2}),
], ids=["evaluation", "finite_part_action", "alternating_series_action",
        "alternating_series_action_wide", "finite_part_action_epsilon"])
def test_each_value_is_checked_where_it_enters(monkeypatch, call, names):
    # a test function evaluates without a rule call: its numbers were
    # checked when it was built, and the pole and order are the library's own
    calls = Counter()
    for module in (casimir, coefficients, distributions, extrapolation, mollifiers,
                   quadrature, sums):
        for rule in ("integer", "real"):
            if hasattr(module, rule):
                monkeypatch.setattr(module, rule, _counting(getattr(module, rule), calls))
    call()
    assert calls == Counter(names)
