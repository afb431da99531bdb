"""Mollifier axioms and test-function transforms."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from divsum.mollifiers import Mollifier, _profile, bump_moment, mollifier
from divsum.mollifiers import TestFunction as SmoothTF
from divsum.quadrature import integrate
from oracles import bump_moment_quadrature


@pytest.mark.parametrize("p", [0, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 8, 64])
class TestAxioms:
    def test_symmetric(self, p, m):
        phi = mollifier(p, m)
        t = np.linspace(0.0, 1.2 / m, 57)
        assert np.array_equal(phi.value(t), phi.value(-t))

    def test_nonnegative(self, p, m):
        phi = mollifier(p, m)
        t = np.linspace(-1.5 / m, 1.5 / m, 211)
        assert np.all(phi.value(t) >= 0.0)

    def test_unit_mass(self, p, m):
        phi = mollifier(p, m)
        mass = integrate(phi.value, *phi.support, tol=1e-13).real
        assert abs(mass - 1.0) < 1e-10

    def test_support_containment_exact(self, p, m):
        phi = mollifier(p, m)
        lo, hi = phi.support
        assert (lo, hi) == (-1.0 / m, 1.0 / m)
        outside = np.array([lo - 1e-12, hi + 1e-12, lo, hi, 2.0, -3.0])
        assert np.array_equal(phi.value(outside), np.zeros(6))
        assert np.array_equal(phi.deriv(outside), np.zeros(6))
        assert np.array_equal(phi.deriv2(outside), np.zeros(6))

    def test_zero_at_infinity(self, p, m):
        # t^p is never formed outside the support, so inf * 0 cannot give nan
        phi = mollifier(p, m)
        far = np.array([-np.inf, np.inf])
        for f in (phi.value, phi.deriv, phi.deriv2):
            assert np.array_equal(f(far), np.zeros(2))


@pytest.mark.parametrize("p", [0, 2, 4])
def test_base_is_zero_outside_with_no_warning(p):
    # on the base itself, with no TestFunction errstate around it: t * t
    # overflows at 1e200 and 1/(1 - t^2) divides by zero at 1 unless the
    # points outside are kept out of the formulas
    base = Mollifier(p)
    t = np.array([np.nan, 1e200, -1e200, 1.0, -1.0, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (base.value, base.deriv, base.deriv2):
            got = f(t)
            assert np.array_equal(got, np.zeros(len(t))), f.__name__
            assert not np.signbit(got).any(), f.__name__


@pytest.mark.parametrize("m, order, t", [
    (1e300, 0, [1e10]),      # m * t past the float range
    (2, 0, [1e308]),
    (1e300, 1, [0.0, 2.0]),  # m * m past it: inf * 0 was nan
    (1e150, 2, [3.0]),       # m * m * m past it
])
def test_zero_outside_the_support_at_any_scale(m, order, t):
    # the suite turns the RuntimeWarning of an overflow into an error
    phi = mollifier(0, m)
    got = (phi.value, phi.deriv, phi.deriv2)[order](np.array(t))
    assert np.array_equal(got, np.zeros(len(t)))


class TestVanishingOrder:
    def test_p_zero_positive_at_origin(self):
        assert Mollifier(0).value(np.array([0.0]))[0] > 0

    @pytest.mark.parametrize("p", [2, 4])
    def test_higher_orders_flat_at_origin(self, p):
        phi = mollifier(p, 3)
        assert phi.value(np.array([0.0]))[0] == 0.0
        assert phi.deriv(np.array([0.0]))[0] == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Mollifier(3)
        with pytest.raises(ValueError, match="^vanishing order must be one of"):
            Mollifier(0)._replace(vanishing_order=3)

    @pytest.mark.parametrize("m", [0, -1, math.nan, math.inf])
    def test_invalid_scale(self, m):
        with pytest.raises(ValueError):
            mollifier(0, m)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_finite_difference(self, p):
        phi = mollifier(p, 2)
        t = np.linspace(-0.45, 0.45, 41)
        h = 1e-6
        fd1 = (phi.value(t + h) - phi.value(t - h)) / (2 * h)
        fd2 = (phi.value(t + h) - 2 * phi.value(t) + phi.value(t - h)) / h**2
        scale1 = np.max(np.abs(phi.deriv(t))) + 1.0
        scale2 = np.max(np.abs(phi.deriv2(t))) + 1.0
        assert np.max(np.abs(fd1 - phi.deriv(t))) / scale1 < 1e-8
        assert np.max(np.abs(fd2 - phi.deriv2(t))) / scale2 < 1e-4

    @pytest.mark.parametrize("p", [0, 2, 4])
    @pytest.mark.parametrize("m", [1, 3])
    def test_exact_derivatives(self, p, m):
        # m (mt)^p exp(-1/(1 - (mt)^2)) / bump_moment(p) differentiated by
        # sympy and evaluated at 30 digits at the same float arguments
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        c = sp.Float(bump_moment(p), 30)
        f = m * (m * x) ** p * sp.exp(-1 / (1 - (m * x) ** 2)) / c
        t = np.array([-0.93, -0.8, -0.66, -0.5, -0.37, -0.21, -0.08, 0.0,
                      0.03, 0.17, 0.31, 0.46, 0.62, 0.77, 0.9]) / m
        phi = mollifier(p, m)
        for j, got in enumerate((phi.value(t), phi.deriv(t), phi.deriv2(t))):
            exact = sp.diff(f, x, j)
            for tk, gk in zip(t, got):
                want = exact.subs(x, sp.Rational(float(tk))).evalf(30)
                assert abs(sp.Float(float(gk), 30) - want) <= 1e-12 * abs(want)


class TestMoments:
    def test_mass_moment_matches_norm(self):
        assert abs(bump_moment(0) - 0.4439938161680793) < 1e-12

    def test_odd_moment_zero(self):
        for j in (1, 3, 5, -3, 7.0):
            assert bump_moment(j) == 0.0, j

    def test_moment_ratio_positive(self):
        assert bump_moment(2) / bump_moment(4) > 1.0

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_table_is_the_quadrature_moment(self, p):
        # the tabulated masses keep the bits the adaptive quadrature gave
        assert bump_moment(p).hex() == bump_moment_quadrature(p).hex()

    @pytest.mark.parametrize("p, ulps_low", [(0, 0), (2, 1), (4, 2)])
    def test_table_against_mpmath(self, p, ulps_low):
        # C_0 is correctly rounded, C_2 is 1 ulp low and C_4 2 ulps low
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.quad(lambda t: t**p * mpmath.exp(-1 / (1 - t * t)),
                                [-1, 0, 1])
            rounded = float(exact)
        c = bump_moment(p)
        assert (rounded - c) / math.ulp(c) == ulps_low

    @pytest.mark.parametrize("j", [6, -2, 2.5, 1e300])
    def test_untabulated_moment_raises(self, j):
        # 2.5 is not an integer, which the integer rule says first
        message = "an integer" if j == 2.5 else "tabulated"
        with pytest.raises(ValueError, match=f"^j must be {message}"):
            bump_moment(j)


class TestTransforms:
    def test_shift(self):
        tf = mollifier(0, 2).shifted(math.pi)
        assert tf.support == (math.pi - 0.5, math.pi + 0.5)
        base = mollifier(0, 2)
        t = np.linspace(math.pi - 0.6, math.pi + 0.6, 33)
        assert np.allclose(tf(t), base(t - math.pi), atol=0, rtol=0)

    def test_dilate_chain_rule(self):
        tf = mollifier(0, 1)
        d = tf.dilated(2.0)
        t = np.linspace(-0.49, 0.49, 23)
        assert np.allclose(d(t), tf(2 * t), atol=0, rtol=0)
        assert np.allclose(d.deriv(t), 2 * tf.deriv(2 * t), atol=0, rtol=0)
        assert np.allclose(d.deriv2(t), 4 * tf.deriv2(2 * t), atol=0, rtol=0)
        assert d.support == (-0.5, 0.5)

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mollifier().dilated(-1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_dilation_factor_is_checked_on_construction(self, lam):
        # lam = inf was accepted by dilated
        with pytest.raises(ValueError, match="dilation factor"):
            SmoothTF(Mollifier(0), lam=lam)
        with pytest.raises(ValueError, match="dilation factor"):
            mollifier(0, 1).shifted(1.0).dilated(lam)
        with pytest.raises(ValueError, match="dilation factor"):
            mollifier(0, 1)._replace(lam=lam)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_amplitude_is_checked_on_construction(self, amp):
        # built directly, it reached quadrature and raised QuadratureError
        with pytest.raises(ValueError, match="amplitude"):
            SmoothTF(Mollifier(0), amp=amp)
        with pytest.raises(ValueError, match="amplitude"):
            mollifier(0, 1)._replace(amp=amp)
        # the shift is held to the same rule, _replace included
        with pytest.raises(ValueError, match="^shift must be finite$"):
            mollifier(0, 1)._replace(shift=math.inf)

    def test_transforms_check_their_products(self):
        with pytest.raises(ValueError, match="dilation factor"):
            mollifier().dilated(1e-200).dilated(1e-200)  # underflows to 0
        with pytest.raises(ValueError, match="amplitude"):
            mollifier().scaled(1e200).scaled(1e200)  # overflows to inf

    def test_shifts_add_before_evaluating(self):
        f = mollifier(2, 1)
        a, b = f.shifted(0.1).shifted(0.2), f.shifted(0.1 + 0.2)
        assert a == b
        t = np.linspace(-0.8, 1.3, 43)
        for k in range(3):
            assert np.array_equal(a.local(0.0, k)(t), b.local(0.0, k)(t))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_local_matches_global_where_the_sum_is_exact(self, order):
        tf = mollifier(4, 1).shifted(math.pi + 0.01)
        x = np.arange(-1000, 860) / 1024
        t = math.pi + x
        assert np.array_equal(t - math.pi, x)  # no rounding in pi + x
        at_t = (tf.value, tf.deriv, tf.deriv2)[order](t)
        assert np.array_equal(tf.local(math.pi, order)(x), at_t)

    def test_scaled(self):
        tf = mollifier(2, 1).scaled(3.0)
        t = np.linspace(-1, 1, 11)
        assert np.allclose(tf(t), 3 * mollifier(2, 1)(t), atol=0, rtol=0)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_is_rejected(self, amp):
        # an input error, before any pairing reaches quadrature with it
        with pytest.raises(ValueError, match="amplitude"):
            mollifier(0, 1).shifted(math.pi).scaled(amp)

    @pytest.mark.parametrize("amp", [0.0, -2.5])
    def test_zero_and_negative_amplitudes_are_accepted(self, amp):
        t = np.linspace(-1, 1, 11)
        assert np.array_equal(mollifier(2, 1).scaled(amp)(t), amp * mollifier(2, 1)(t))

    def test_breakpoints_follow_the_map(self):
        tf = mollifier(2, 4).dilated(2.0).shifted(1.0)
        grading = (0.0, 0.5, -0.5, 0.75, -0.75, 0.875, -0.875)
        assert mollifier(2, 4).breakpoints == tuple(b / 4 for b in grading)
        assert tf.breakpoints == tuple(1.0 + b / 8 for b in grading)
        sa, sb = tf.support
        assert all(sa < b < sb for b in tf.breakpoints)

    def test_base_without_breakpoints_has_none(self):
        z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        tf = SmoothTF(SimpleNamespace(value=z, deriv=z, deriv2=z, support=(0.0, 1.0)))
        assert tf.shifted(2.0).dilated(3.0).breakpoints == ()

    def test_rescaled_mollifier(self):
        phi = Mollifier(4).rescaled(8)
        assert phi.lam == phi.amp == 8.0 and phi.base.vanishing_order == 4


class TestRescaling:
    """phi_m is the unit bump under the TestFunction map lam = amp = m."""

    @pytest.mark.parametrize("p", [0, 2, 4])
    @pytest.mark.parametrize("m", [2, 8, 64, 1024, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_the_scaled_profile(self, p, m, k):
        # m^(k+1) f^(k)(m t) / C_p, multiplied before dividing; for a power
        # of 2 the two orders round alike
        t = np.linspace(-1.25, 1.25, 201) / m
        got = Mollifier(p).rescaled(m).local(0.0, k)(t)
        want = m ** (k + 1) * _profile(m * t, p, k) / bump_moment(p)
        if m == 3:
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0, 2, 4])
    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_is_a_dilation_and_an_amplitude(self, p, m):
        assert mollifier(p, m) == mollifier(p).dilated(m).scaled(m)
