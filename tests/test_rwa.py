"""Rotating-wave sector: couplings, Lyapunov moments, Langevin pair."""

import math

import numpy as np
import pytest

from qlesim.bath import SystemSpec
from qlesim import rwa
from qlesim.sde import exact_discretization

COTH_HALF = 1.0 / math.tanh(0.5)


class TestCoupling:
    def test_unit_parameters(self):
        assert rwa.rwa_coupling(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_linear_in_coupling(self):
        base = rwa.rwa_coupling(1.0, 1.0, 1.0, 1.0, 2.0)
        assert rwa.rwa_coupling(3.0, 1.0, 1.0, 1.0, 2.0) == pytest.approx(
            3.0 * base, rel=1e-15
        )

    def test_doubles_when_mode_frequency_quartered(self):
        base = rwa.rwa_coupling(1.0, 1.0, 1.0, 1.0, 4.0)
        assert rwa.rwa_coupling(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            2.0 * base, rel=1e-15
        )


class TestHamiltonianSplit:
    def test_position_half(self):
        pos, _ = rwa.rwa_hamiltonian_split(0.8, 2.0, 3.0, 1.5, 2.5)
        assert pos == pytest.approx(0.4, rel=1e-15)

    def test_momentum_half_at_unit_parameters(self):
        _, mom = rwa.rwa_hamiltonian_split(1.0, 1.0, 1.0, 1.0, 1.0)
        assert mom == pytest.approx(0.5, rel=1e-15)

    def test_ratio_identity(self):
        pos, mom = rwa.rwa_hamiltonian_split(0.8, 2.0, 3.0, 1.5, 2.5)
        assert mom / pos == pytest.approx(1.0 / (2.0 * 3.0 * 1.5 * 2.5), rel=1e-14)


class TestStationaryAnalytic:
    def test_weak_coupling_energies_exact(self):
        sys_ = SystemSpec()
        for gamma in (1e-4, 1e-2, 0.3):
            params = rwa.RwaParams.from_system(sys_, gamma)
            x2, p2 = rwa.rwa_stationary_analytic(params)
            assert sys_.mass * sys_.omega0**2 * x2 == pytest.approx(
                0.5 * COTH_HALF, rel=1e-10
            )
            assert p2 / sys_.mass == pytest.approx(0.5 * COTH_HALF, rel=1e-10)

    def test_covariance_positive_semidefinite(self):
        sys_ = SystemSpec(mass=1.5, omega0=2.0, temperature=0.3)
        params = rwa.RwaParams.from_system(sys_, 0.05)
        x2, p2 = rwa.rwa_stationary_analytic(params)
        assert x2 > 0 and p2 > 0

    def test_drift_eigenvalues(self):
        sys_ = SystemSpec(mass=2.0, omega0=1.3)
        params = rwa.RwaParams.from_system(sys_, 0.07)
        eig = np.sort_complex(np.linalg.eigvals(rwa.drift_matrix(params)))
        np.testing.assert_allclose(
            eig, [complex(-0.07, -1.3), complex(-0.07, 1.3)], rtol=1e-13
        )

    def test_intensity_invariants(self):
        sys_ = SystemSpec(mass=1.5, omega0=2.0)
        params = rwa.RwaParams.from_system(sys_, 0.01)
        assert params.intensity_p / params.intensity_x == pytest.approx(
            (1.5 * 2.0) ** 2, rel=1e-13
        )

    def test_narrowband_flag(self):
        sys_ = SystemSpec()
        assert rwa.RwaParams.from_system(sys_, 0.01).narrowband
        assert not rwa.RwaParams.from_system(sys_, 0.5).narrowband


class TestSimulate:
    def test_zero_noise_damped_rotation(self):
        # drift-only propagation of (1, 0): x(t) = e^{-gamma t} cos(w0 t)
        sys_ = SystemSpec()
        params = rwa.RwaParams.from_system(sys_, 0.05)
        prop, q_dt = exact_discretization(rwa.drift_matrix(params),
                                          np.zeros((2, 2)), 0.02)
        assert np.allclose(q_dt, 0.0, atol=1e-18)
        state = np.array([1.0, 0.0])
        for _ in range(500):
            state = prop @ state
        t = 500 * 0.02
        assert state[0] == pytest.approx(
            math.exp(-0.05 * t) * math.cos(t), rel=1e-10
        )

    def test_matches_analytic_three_sigma(self):
        sys_ = SystemSpec()
        params = rwa.RwaParams.from_system(sys_, 0.01)
        res = rwa.simulate_rwa(params, dt=1.0 / 0.01, n_steps=100,
                               n_traj=2000, seed=17)
        x2_ref, p2_ref = rwa.rwa_stationary_analytic(params)
        assert abs(res["x2"].mean - x2_ref) < 3.0 * res["x2"].se
        assert abs(res["p2"].mean - p2_ref) < 3.0 * res["p2"].se
        assert abs(res["xp"].mean) < 4.0 * res["xp"].se

    @pytest.mark.parametrize("gamma", (0.01, 0.05))
    @pytest.mark.parametrize("temp", (0.5, 2.0))
    def test_parameter_grid_three_sigma(self, gamma, temp):
        sys_ = SystemSpec(temperature=temp)
        params = rwa.RwaParams.from_system(sys_, gamma)
        res = rwa.simulate_rwa(params, dt=1.0 / gamma, n_steps=60,
                               n_traj=800, seed=29)
        x2_ref, p2_ref = rwa.rwa_stationary_analytic(params)
        assert abs(res["x2"].mean - x2_ref) < 3.5 * res["x2"].se
        assert abs(res["p2"].mean - p2_ref) < 3.5 * res["p2"].se

    def test_ehrenfest_residual_positive_and_reported(self):
        # white position noise makes dx/dt - p/m noisy at the sampling
        # bandwidth; the residual is reported against I_x / (2 dt)
        sys_ = SystemSpec()
        params = rwa.RwaParams.from_system(sys_, 0.01)
        dt = 0.01
        res = rwa.simulate_rwa(params, dt=dt, n_steps=400, n_traj=100, seed=13)
        assert res["ehrenfest"].mean > 0.0
        bandwidth_scale = params.intensity_x / (2.0 * dt)
        assert res["ehrenfest"].mean == pytest.approx(bandwidth_scale, rel=0.5)

    def test_ehrenfest_exact_value(self):
        params = rwa.RwaParams.from_system(SystemSpec(), 0.1)
        assert rwa.ehrenfest_residual_exact(params, 1.0) == pytest.approx(
            0.540382064, rel=1e-8)

    def test_ehrenfest_exact_small_step_limit(self):
        params = rwa.RwaParams.from_system(SystemSpec(), 0.1)
        dt = 1e-3
        assert rwa.ehrenfest_residual_exact(params, dt) == pytest.approx(
            params.intensity_x / (2.0 * dt), rel=1e-3)

    def test_ehrenfest_matches_exact_at_unit_step(self):
        # at dt = 1 the small-step value I_x/(2 dt) = 0.216 is 2.5x too low
        params = rwa.RwaParams.from_system(SystemSpec(), 0.1)
        res = rwa.simulate_rwa(params, dt=1.0, n_steps=400, n_traj=200, seed=31)
        exact = rwa.ehrenfest_residual_exact(params, 1.0)
        assert abs(res["ehrenfest"].mean - exact) < 4.0 * res["ehrenfest"].se

    def test_warns_outside_narrowband(self):
        sys_ = SystemSpec()
        params = rwa.RwaParams.from_system(sys_, 0.5)
        with pytest.warns(UserWarning, match="dubious"):
            rwa.simulate_rwa(params, dt=2.0, n_steps=5, n_traj=4, seed=1)

    def test_determinism(self):
        sys_ = SystemSpec()
        params = rwa.RwaParams.from_system(sys_, 0.02)
        a = rwa.simulate_rwa(params, dt=50.0, n_steps=20, n_traj=32, seed=8)
        b = rwa.simulate_rwa(params, dt=50.0, n_steps=20, n_traj=32, seed=8)
        assert a["p2"].mean == b["p2"].mean
