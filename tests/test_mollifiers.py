"""Mollifier axioms and test-function transforms."""

import math

import numpy as np
import pytest

from divsum.mollifiers import Mollifier, bump_moment, mollifier
from divsum.quadrature import integrate


@pytest.mark.parametrize("p", [0, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 8, 64])
class TestAxioms:
    def test_symmetric(self, p, m):
        phi = Mollifier(p, m)
        t = np.linspace(0.0, 1.2 / m, 57)
        assert np.array_equal(phi.value(t), phi.value(-t))

    def test_nonnegative(self, p, m):
        phi = Mollifier(p, m)
        t = np.linspace(-1.5 / m, 1.5 / m, 211)
        assert np.all(phi.value(t) >= 0.0)

    def test_unit_mass(self, p, m):
        phi = Mollifier(p, m)
        mass = integrate(phi.value, *phi.support, tol=1e-13).real
        assert abs(mass - 1.0) < 1e-10

    def test_support_containment_exact(self, p, m):
        phi = Mollifier(p, m)
        lo, hi = phi.support
        assert (lo, hi) == (-1.0 / m, 1.0 / m)
        outside = np.array([lo - 1e-12, hi + 1e-12, lo, hi, 2.0, -3.0])
        assert np.array_equal(phi.value(outside), np.zeros(6))
        assert np.array_equal(phi.deriv(outside), np.zeros(6))
        assert np.array_equal(phi.deriv2(outside), np.zeros(6))

    def test_zero_at_infinity(self, p, m):
        # t^p is never formed outside the support, so inf * 0 cannot give nan
        phi = Mollifier(p, m)
        far = np.array([-np.inf, np.inf])
        for f in (phi.value, phi.deriv, phi.deriv2):
            assert np.array_equal(f(far), np.zeros(2))


class TestVanishingOrder:
    def test_p_zero_positive_at_origin(self):
        assert Mollifier(0, 1).value(np.array([0.0]))[0] > 0

    @pytest.mark.parametrize("p", [2, 4])
    def test_higher_orders_flat_at_origin(self, p):
        phi = Mollifier(p, 3)
        assert phi.value(np.array([0.0]))[0] == 0.0
        assert phi.deriv(np.array([0.0]))[0] == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Mollifier(3, 1)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Mollifier(0, 0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_finite_difference(self, p):
        phi = Mollifier(p, 2)
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
        phi = Mollifier(p, m)
        for j, got in enumerate((phi.value(t), phi.deriv(t), phi.deriv2(t))):
            exact = sp.diff(f, x, j)
            for tk, gk in zip(t, got):
                want = exact.subs(x, sp.Rational(float(tk))).evalf(30)
                assert abs(sp.Float(float(gk), 30) - want) <= 1e-12 * abs(want)


class TestMoments:
    def test_mass_moment_matches_norm(self):
        assert abs(bump_moment(0) - 0.4439938161680793) < 1e-12

    def test_odd_moment_zero(self):
        assert bump_moment(3) == 0.0

    def test_moment_ratio_positive(self):
        assert bump_moment(2) / bump_moment(4) > 1.0


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

    def test_scaled(self):
        tf = mollifier(2, 1).scaled(3.0)
        t = np.linspace(-1, 1, 11)
        assert np.allclose(tf(t), 3 * mollifier(2, 1)(t), atol=0, rtol=0)

    def test_rescaled_mollifier(self):
        phi = Mollifier(4, 1).rescaled(8)
        assert phi.scale == 8 and phi.vanishing_order == 4
