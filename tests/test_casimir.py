"""1-D vacuum-energy toy model."""

import math
from fractions import Fraction

import pytest

from divsum.casimir import (
    SI_C,
    SI_HBAR,
    CavityConfig,
    angular_frequency,
    casimir_force,
    ground_state_energy,
    mode_wavenumber,
)
from divsum.sums import sum_powers, zeta_negative_oracle


class TestModes:
    def test_unit_wavenumber(self):
        assert mode_wavenumber(1, CavityConfig(d=math.pi)) == 1.0

    def test_third_mode(self):
        assert mode_wavenumber(3, CavityConfig(d=1.0)) == 3 * math.pi

    def test_dispersion_relation(self):
        cfg = CavityConfig(d=2.5, c=3.0)
        for n in range(1, 9):
            assert angular_frequency(n, cfg) / mode_wavenumber(n, cfg) == cfg.c

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            mode_wavenumber(0, CavityConfig(d=1.0))

    @pytest.mark.parametrize("call", [
        lambda: mode_wavenumber(1e308, CavityConfig(d=1.0)),   # inf k_n
        lambda: mode_wavenumber(10**400, CavityConfig(d=1.0)),  # no float n
        lambda: angular_frequency(1, CavityConfig(d=5e-324)),   # inf k_1
    ], ids=["index-1e308", "index-10**400", "d-5e-324"])
    def test_outside_float_range(self, call):
        with pytest.raises(ValueError, match="float range"):
            call()


class TestEnergy:
    def test_natural_units_value(self):
        e = ground_state_energy(CavityConfig(d=1.0))
        assert abs(e - (-math.pi / 24)) < 1e-15

    def test_doubling_d_halves_magnitude(self):
        e1 = ground_state_energy(CavityConfig(d=1.0))
        e2 = ground_state_energy(CavityConfig(d=2.0))
        assert abs(e2 - e1 / 2) < 1e-15

    def test_energy_times_d_invariant(self):
        for d in (0.01, 0.1, 1.0, 7.3, 1e3):
            e = ground_state_energy(CavityConfig(d=d))
            assert abs(e * d - (-math.pi / 24)) < 1e-15

    def test_coefficient_sources_bit_identical(self):
        # the -1/12 from the closed form and from the Bernoulli oracle are
        # the same exact rational, so float conversion cannot differ
        assert sum_powers(1).value == zeta_negative_oracle(1) == Fraction(-1, 12)
        assert float(sum_powers(1).value) == float(zeta_negative_oracle(1))

    def test_si_units(self):
        d = 1e-6
        e = ground_state_energy(CavityConfig.si(d))
        expected = -math.pi * SI_C * SI_HBAR / (24 * d)
        assert abs(e - expected) / abs(expected) < 1e-14


class TestForce:
    def test_natural_units_value(self):
        assert abs(casimir_force(CavityConfig(d=1.0)) - math.pi / 24) < 1e-15

    def test_inverse_square_scaling(self):
        assert abs(casimir_force(CavityConfig(d=2.0)) - math.pi / 96) < 1e-15

    def test_denominator_from_closed_form_sum(self):
        # pi c hbar / (24 d^2) with the 24 taken as -2 / sum_powers(1)
        assert -2 / sum_powers(1).value == 24
        for d in (1e-9, 0.37, 1.0, 2.5, 1e3):
            for cfg in (CavityConfig(d=d), CavityConfig.si(d)):
                expected = math.pi * cfg.c * cfg.hbar / (24.0 * (cfg.d * cfg.d))
                assert casimir_force(cfg) == expected

    def test_square_correctly_rounded(self):
        # d * d is the correctly rounded square; libm pow can be one ulp off
        # it (on glibc x86-64 it is here: d**2 = 126126.55044899997)
        d = 355.143
        assert casimir_force(CavityConfig(d=d)) == math.pi / (24.0 * (d * d))

    @pytest.mark.parametrize("d", [1e-160, 1e-170, 5e-324, 1e200])
    def test_outside_float_range(self, d):
        # the force overflows, underflows, or passes through a subnormal d^2
        for cfg in (CavityConfig(d=d), CavityConfig.si(d)):
            with pytest.raises(ValueError, match="float range"):
                casimir_force(cfg)

    def test_matches_finite_difference(self):
        h = 1e-4
        for d in (0.5, 1.0, 3.0):
            fd = (
                ground_state_energy(CavityConfig(d=d + h))
                - ground_state_energy(CavityConfig(d=d - h))
            ) / (2 * h)
            force = casimir_force(CavityConfig(d=d))
            assert abs(force - fd) / force < 1e-6


class TestConfig:
    def test_invalid_separation(self):
        with pytest.raises(ValueError):
            CavityConfig(d=0.0)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            CavityConfig(d=1.0, c=-1.0)

    @pytest.mark.parametrize("field", ["d", "c", "hbar"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, bad):
        kwargs = {"d": 1.0, field: bad}
        with pytest.raises(ValueError):
            CavityConfig(**kwargs)

    def test_replace_validates(self):
        cfg = CavityConfig(d=1.0)
        assert cfg._replace(c=2.0) == CavityConfig(d=1.0, c=2.0, hbar=1.0)
        with pytest.raises(ValueError):
            cfg._replace(d=-1.0)

    def test_immutable_record(self):
        cfg = CavityConfig.si(2.0)
        assert repr(cfg) == "CavityConfig(d=2.0, c=299792458.0, hbar=1.054571817e-34)"
        assert hash(cfg) == hash(CavityConfig(2.0, SI_C, SI_HBAR))
        with pytest.raises(AttributeError):
            cfg.d = 1.0
