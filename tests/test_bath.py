"""Bath models: kernels, microscopic parameters, discretization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from qlesim.bath import (
    BathKind,
    BathSpec,
    ModeSet,
    SystemSpec,
    discretize_bath,
    friction_kernel,
)
from qlesim.errors import DomainError, UnsupportedBathError
from qlesim.microbath import initial_slip


class TestGammaFromMicro:
    """gamma = 3 pi c^2 / (2 m Omega^3) through the derived coupling c of unit-mass modes."""

    def test_unit_parameters(self):
        bath = BathSpec.cutoff_ohmic(gamma=3.0 * math.pi / 2.0, cutoff=1.0, system_mass=1.0)
        assert bath.coupling == pytest.approx(1.0, rel=1e-15)

    def test_cutoff_scaling_keeps_gamma_fixed(self):
        # coupling ~ cutoff^(3/2) holds gamma constant as the cutoff grows
        base = BathSpec.cutoff_ohmic(gamma=0.3, cutoff=1.0).coupling
        for cutoff in (10.0, 100.0, 1000.0):
            scaled = BathSpec.cutoff_ohmic(gamma=0.3, cutoff=cutoff).coupling
            assert scaled == pytest.approx(base * cutoff**1.5, rel=1e-12)

    def test_doubling_mass_halves_gamma(self):
        # c^2 ~ m: one coupling gives half the damping on twice the mass
        one = BathSpec.cutoff_ohmic(gamma=0.3, cutoff=2.0, system_mass=1.0).coupling
        two = BathSpec.cutoff_ohmic(gamma=0.15, cutoff=2.0, system_mass=2.0).coupling
        assert two == pytest.approx(one, rel=1e-15)
        doubled = BathSpec.cutoff_ohmic(gamma=0.3, cutoff=2.0, system_mass=2.0).coupling
        assert doubled**2 == pytest.approx(2.0 * one**2, rel=1e-15)

    def test_nonpositive_rejected(self):
        for gamma, cutoff, mass in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(DomainError):
                BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff, system_mass=mass)


class TestFrictionKernel:
    def test_cutoff_kernel_at_zero(self):
        # mu(0) = (2 m gamma / pi) * Omega
        bath = BathSpec.cutoff_ohmic(gamma=0.7, cutoff=4.0, system_mass=1.3)
        expected = 2.0 * 1.3 * 0.7 / math.pi * 4.0
        assert friction_kernel(bath, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_single_mode_cosine(self):
        # a finite bath's kernel is its initial-slip force per unit x0
        modes = ModeSet(omega=[2.0], mass=[1.5], coupling=[0.8])
        t = np.linspace(0.0, 5.0, 50)
        expected = 0.8**2 / (1.5 * 2.0**2) * np.cos(2.0 * t)
        np.testing.assert_allclose(initial_slip(modes, 1.0, t), expected, rtol=1e-14)

    def test_kernel_integral_matches_half_delta_mass(self):
        # quadrature of the sinc kernel over [0, 200/W] against m*gamma,
        # i.e. 2*m*gamma with the half weight of the one-sided delta
        bath = BathSpec.cutoff_ohmic(gamma=0.3, cutoff=50.0, system_mass=1.0)
        val, _ = integrate.quad(
            lambda t: friction_kernel(bath, t), 0.0, 200.0 / bath.cutoff, limit=400
        )
        assert val == pytest.approx(1.0 * 0.3, rel=1e-2)

    def test_strict_kernel_rejected(self):
        with pytest.raises(UnsupportedBathError, match="distributional"):
            friction_kernel(BathSpec.strict_ohmic(1.0), 0.5)

    @given(st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_causality_exact_zero(self, t):
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=5.0)
        assert friction_kernel(bath, -t) == 0.0


class TestDiscretizeBath:
    def test_single_mode_midpoint_quantile(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=2.0)
        modes = discretize_bath(bath, 1)
        assert modes.omega[0] == pytest.approx(2.0 * 0.5 ** (1.0 / 3.0), rel=1e-15)

    def test_equal_couplings_inverse_sqrt(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=2.0)
        modes = discretize_bath(bath, 64)
        np.testing.assert_allclose(
            modes.coupling, bath.coupling / 8.0, rtol=1e-15
        )
        assert np.all(modes.mass == 1.0)

    def test_kernel_converges_to_sinc(self):
        # sup over t in [0, 10/W] of |mu_N - mu_inf| / mu_inf(0): decreasing
        # in N and below 5% at N = 1e4 (the midpoint-quantile rule converges
        # like N^(-1/3) because of the w^-2 weight at low frequency)
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=1.0)
        t = np.linspace(0.0, 10.0, 801)
        continuum = friction_kernel(bath, t)
        scale = friction_kernel(bath, 0.0)
        errors = []
        for n in (100, 1000, 10000):
            discrete = initial_slip(discretize_bath(bath, n), 1.0, t)
            err = np.max(np.abs(discrete - continuum)) / scale
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.05

    def test_strict_not_discretizable(self):
        with pytest.raises(UnsupportedBathError):
            discretize_bath(BathSpec.strict_ohmic(1.0), 10)
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=2.0)
        with pytest.raises(DomainError):
            discretize_bath(bath, 0)


class TestSpecValidation:
    def test_modeset_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            ModeSet(omega=[1.0, 2.0], mass=[1.0], coupling=[1.0, 1.0])
        with pytest.raises(DomainError):
            ModeSet(omega=[-1.0], mass=[1.0], coupling=[1.0])
        with pytest.raises(DomainError):
            ModeSet(omega=[], mass=[], coupling=[])

    def test_system_spec_validation(self):
        with pytest.raises(DomainError):
            SystemSpec(mass=0.0)
        with pytest.raises(DomainError):
            SystemSpec(temperature=0.0)
        with pytest.raises(DomainError):
            SystemSpec(omega0=-1.0)
        # free-particle limit is allowed
        assert SystemSpec(omega0=0.0).omega0 == 0.0

    def test_bathspec_gamma_consistency_enforced(self):
        # the coupling is derived, so it gives back gamma for any system mass
        bath = BathSpec.cutoff_ohmic(gamma=0.7, cutoff=2.0, system_mass=1.3)
        implied = 3.0 * math.pi * bath.coupling**2 / (2.0 * 1.3 * 2.0**3)
        assert implied == pytest.approx(0.7, rel=1e-15)
        with pytest.raises(DomainError, match="cutoff"):
            BathSpec(kind=BathKind.CUTOFF_OHMIC, gamma=0.7)

    @pytest.mark.parametrize("cutoff, mass", ((1e200, 1.0), (1e103, 1.0), (1.0, 1e308)))
    def test_cutoff_ohmic_rejects_infinite_coupling(self, cutoff, mass):
        # cutoff^3 raised OverflowError, and a finite product past the floats
        # made an infinite coupling
        with pytest.raises(DomainError, match="coupling is not finite"):
            BathSpec.cutoff_ohmic(gamma=0.1, cutoff=cutoff, system_mass=mass)

    def test_bathspec_rejects_nonpositive_gamma(self):
        with pytest.raises(DomainError):
            BathSpec.strict_ohmic(0.0)

    def test_thermal_coth_classical_limit(self):
        sys_ = SystemSpec(hbar=1e-8)
        omega = 2.0
        expected = 2.0 * sys_.kB * sys_.temperature / (sys_.hbar * omega)
        assert float(sys_.thermal_coth(omega)) == pytest.approx(expected, rel=1e-8)
