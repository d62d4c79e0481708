"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from qlesim.bath import BathSpec, SystemSpec, discretize_bath
from qlesim.quadrature import QuadratureConfig
from qlesim import fdt, markovian as mk, microbath as mb, rwa, thermo

COTH_HALF = 1.0 / math.tanh(0.5)
FIGURE_DAMPINGS = (1.0, 0.5, 0.125, 0.0125)


@contextmanager
def criterion(number, description):
    try:
        yield
    except AssertionError:
        print(f"criterion {number}: FAIL ({description})")
        raise
    print(f"criterion {number}: PASS ({description})")


def test_criterion_1_density_normalization():
    with criterion(1, "energy densities normalized to 1e-6 at the figure dampings"):
        for damping in FIGURE_DAMPINGS:
            for which in ("k", "p"):
                norm = fdt.density_normalization(which, damping)
                assert abs(norm - 1.0) < 1e-6, (which, damping, norm)


def test_criterion_2_delta_limit_moments():
    with criterion(2, "delta-limit: windowed moments near 1, shrinking with damping"):
        for which in ("k", "p"):
            for order in (1, 2):
                dev3 = abs(fdt.density_moment(which, order, 1e-3) - 1.0)
                dev4 = abs(fdt.density_moment(which, order, 1e-4) - 1.0)
                assert dev3 < 0.01, (which, order, dev3)
                assert dev4 < dev3, (which, order, dev3, dev4)


def test_criterion_3_weak_coupling_energies():
    with criterion(3, "channel energies within 0.5% of the weak-coupling value"):
        sys_ = SystemSpec()  # kB T = hbar omega0
        bath = BathSpec.strict_ohmic(1e-4)
        cfg = QuadratureConfig(omega_max=1e3)
        split = fdt.mean_energies(sys_, bath, cfg)
        target = 0.5 * COTH_HALF
        assert abs(split.ek / target - 1.0) < 5e-3, split
        assert abs(split.ep / target - 1.0) < 5e-3, split
        assert abs(split.ek / split.ep - 1.0) < 1e-3, split


def test_criterion_4_classical_limit():
    with criterion(4, "hbar -> 0: equipartition by quadrature, classical intensity"):
        sys_ = SystemSpec(hbar=1e-6)
        bath = BathSpec.strict_ohmic(0.5)
        cfg = QuadratureConfig(omega_max=1e4)
        kt = sys_.kB * sys_.temperature
        ep = sys_.mass * sys_.omega0**2 * fdt.position_correlation(0.0, sys_, bath, cfg)
        ek = sys_.mass * fdt.velocity_correlation(0.0, sys_, bath, cfg)
        assert abs(ep / kt - 1.0) < 5e-3, ep
        assert abs(ek / kt - 1.0) < 5e-3, ek
        classical = mk.noise_intensity_classical(sys_, 0.5)
        assert classical == 4.0 * sys_.mass * 0.5 * kt
        assert mk.noise_intensity(sys_, 0.5) == pytest.approx(classical, rel=1e-12)


def test_criterion_5_oracle_triangle():
    with criterion(5, "quadrature, closed-form and Monte Carlo moments agree"):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.1)

        x2_closed, v2_closed = mk.stationary_moments_analytic(params)
        weak = fdt.weak_coupling_energy(sys_)
        # closed forms agree exactly
        assert math.isclose(sys_.mass * sys_.omega0**2 * x2_closed, weak, rel_tol=1e-12)
        assert math.isclose(sys_.mass * v2_closed, weak, rel_tol=1e-12)
        # the brute-force double integral confirms the closed forms
        assert mk.stationary_double_integral(params, "x2") == pytest.approx(
            x2_closed, rel=1e-9)
        assert mk.stationary_double_integral(params, "v2") == pytest.approx(
            v2_closed, rel=1e-9)
        # damping -> 0 extrapolated quadrature lands on the same numbers
        split = fdt.extrapolated_weak_energies(sys_)
        assert split.ek == pytest.approx(weak, rel=1e-6)
        assert split.ep == pytest.approx(weak, rel=1e-6)
        # Monte Carlo against both, three combined standard errors
        res = mk.simulate_sde(params, dt=1.0 / params.gamma, n_steps=1000,
                              n_traj=100_000, seed=2024)
        for name, closed, quad in (("x2", x2_closed, split.ep / sys_.mass),
                                   ("v2", v2_closed, split.ek / sys_.mass)):
            est = res[name]
            assert abs(est.mean - closed) < 3.0 * est.se, (name, est, closed)
            assert abs(est.mean - quad) < 3.0 * est.se + 1e-6, (name, est, quad)


def test_criterion_6_microbath_fdt():
    with criterion(6, "finite-bath noise statistics and memory dynamics match quadrature"):
        sys_ = SystemSpec()
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0, system_mass=sys_.mass)
        modes = discretize_bath(bath, 1000)

        taus = np.linspace(0.0, 5.0, 11)
        origins = np.arange(0.0, 20.0001, 0.5)
        stats = mb.noise_ensemble_stats(modes, sys_, taus, n_real=10_000,
                                        seed=77, origins=origins)
        scale = mb.noise_autocorrelation_quadrature(sys_, bath, 0.0)
        for tau, est in zip(taus, stats["autocorr"]):
            target = mb.noise_autocorrelation_quadrature(sys_, bath, tau)
            assert abs(est.mean - target) / scale < 0.05, (tau, est.mean, target)

        dt = 0.03
        grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(20.0 / bath.gamma / dt)))
        res = mb.gle_ensemble_moments(modes, sys_, grid, n_real=10_000, seed=78)
        x2_ref = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig())
        est = res["x2"]
        assert abs(est.mean - x2_ref) < 3.0 * est.se, (est, x2_ref)


def test_criterion_7_rwa_consistency():
    with criterion(7, "RWA stationary energies sit on the weak-coupling value"):
        sys_ = SystemSpec()
        target = 0.5 * COTH_HALF

        def deviation(ratio):
            params = rwa.RwaParams.from_system(sys_, ratio * sys_.omega0)
            x2, p2 = rwa.rwa_stationary_analytic(params)
            dev_x = abs(sys_.mass * sys_.omega0**2 * x2 / target - 1.0)
            dev_p = abs(p2 / (sys_.mass * target) - 1.0)
            return max(dev_x, dev_p)

        dev3 = deviation(1e-3)
        dev2 = deviation(1e-2)
        assert dev3 < 0.01, dev3
        # first-order shrinkage; the Lyapunov solution is exactly
        # damping-independent, so both deviations sit at the solver floor
        assert dev3 <= max(dev2 / 5.0, 1e-10), (dev2, dev3)


def test_criterion_8_thermodynamics():
    with criterion(8, "mean energy equals the log-derivative of the partition function"):
        beta, w0 = 0.8, 1.3
        h = 1e-6 * beta
        fd = -(math.log(thermo.partition_weak(beta + h, w0))
               - math.log(thermo.partition_weak(beta - h, w0))) / (2.0 * h)
        closed = thermo.mean_energy_weak(beta, w0)
        assert abs(closed / fd - 1.0) < 1e-8, (closed, fd)
        a = thermo.free_particle_kinetic(SystemSpec(omega0=0.0, hbar=1.0))
        b = thermo.free_particle_kinetic(SystemSpec(omega0=0.0, hbar=137.0))
        assert a == b == 0.5


def test_criterion_9_noise_convention_audit():
    with criterion(9, "half-intensity symmetric convention fixes the stationary moments"):
        sys_ = SystemSpec()
        for gamma in (0.05, 0.3):
            params = mk.MarkovParams.from_system(sys_, gamma)
            numeric_x2 = mk.stationary_double_integral(params, "x2")
            numeric_v2 = mk.stationary_double_integral(params, "v2")
            adopted_x2 = sys_.hbar / (2.0 * sys_.mass * sys_.omega0) * COTH_HALF
            adopted_v2 = sys_.hbar * sys_.omega0 / (2.0 * sys_.mass) * COTH_HALF
            assert numeric_x2 == pytest.approx(adopted_x2, rel=1e-9)
            assert numeric_v2 == pytest.approx(adopted_v2, rel=1e-9)
            # the full-intensity reading would double both moments; that
            # factor of two is the documented discrepancy resolved here
            assert 2.0 * numeric_x2 == pytest.approx(
                sys_.hbar / (sys_.mass * sys_.omega0) * COTH_HALF, rel=1e-9)
