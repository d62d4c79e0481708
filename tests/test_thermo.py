"""Weak-coupling thermodynamics closed forms."""

import math

import pytest

from qlesim.bath import SystemSpec
from qlesim.errors import DomainError
from qlesim import thermo


class TestPartition:
    def test_sinh_inversion(self):
        # beta hbar w0 = 2 asinh(1/2) makes 2 sinh(beta hbar w0 / 2) = 1
        beta = 2.0 * math.asinh(0.5)
        assert thermo.partition_weak(beta, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_ground_state_dominance(self):
        beta = 80.0
        assert thermo.partition_weak(beta, 1.0) == pytest.approx(
            math.exp(-0.5 * beta), rel=1e-14
        )

    def test_high_temperature_classical(self):
        beta = 1e-6
        assert thermo.partition_weak(beta, 1.0) == pytest.approx(1.0 / beta, rel=1e-6)

    def test_free_particle_redirects(self):
        with pytest.raises(DomainError, match="free_particle"):
            thermo.partition_weak(1.0, 0.0)


class TestMeanEnergy:
    def test_zero_temperature_zero_point(self):
        assert thermo.mean_energy_weak(1e4, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_high_temperature_classical(self):
        beta = 1e-8
        assert thermo.mean_energy_weak(beta, 1.0) == pytest.approx(1.0 / beta, rel=1e-8)

    def test_matches_fdt_weak_energy(self):
        from qlesim.fdt import weak_coupling_energy

        sys_ = SystemSpec(omega0=1.7, temperature=0.6)
        beta = 1.0 / (sys_.kB * sys_.temperature)
        assert thermo.mean_energy_weak(beta, 1.7, 1.0) == pytest.approx(
            weak_coupling_energy(sys_), rel=1e-14
        )

    def test_finite_difference_of_log_partition(self):
        # E = -d ln Z / d beta via central difference at d(beta) = 1e-6 beta
        beta, w0 = 0.8, 1.3
        h = 1e-6 * beta
        lo = math.log(thermo.partition_weak(beta - h, w0))
        hi = math.log(thermo.partition_weak(beta + h, w0))
        fd = -(hi - lo) / (2.0 * h)
        assert thermo.mean_energy_weak(beta, w0) == pytest.approx(fd, rel=1e-8)

    def test_monotone_in_temperature(self):
        energies = [
            thermo.mean_energy_weak(1.0 / t, 1.0) for t in (0.1, 0.5, 1.0, 5.0, 20.0)
        ]
        assert energies == sorted(energies)


class TestFreeParticle:
    def test_half_kt(self):
        sys_ = SystemSpec(omega0=0.0, temperature=2.0, kB=1.5)
        assert thermo.free_particle_kinetic(sys_) == 1.5

    def test_independent_of_hbar_bit_identical(self):
        a = thermo.free_particle_kinetic(SystemSpec(omega0=0.0, hbar=1.0))
        b = thermo.free_particle_kinetic(SystemSpec(omega0=0.0, hbar=137.0))
        assert a == b
