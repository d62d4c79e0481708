"""Markovian limit: noise intensity, roots, stationary moments, SDE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlesim.bath import SystemSpec
from qlesim.errors import DomainError
from qlesim import markovian as mk
from qlesim.sde import exact_discretization, noise_factor

COTH_HALF = 1.0 / math.tanh(0.5)


class TestNoiseIntensity:
    def test_reference_temperature(self):
        sys_ = SystemSpec()  # kB T = hbar w0
        assert mk.noise_intensity(sys_, 0.3) == pytest.approx(
            2.0 * 0.3 * COTH_HALF, rel=1e-15
        )

    def test_classical_limit(self):
        sys_ = SystemSpec(hbar=1e-6)
        got = mk.noise_intensity(sys_, 0.3)
        assert got == pytest.approx(mk.noise_intensity_classical(sys_, 0.3), rel=1e-12)

    def test_classical_closed_form_exact(self):
        sys_ = SystemSpec(mass=1.7, temperature=2.5, kB=1.3)
        assert mk.noise_intensity_classical(sys_, 0.4) == 4.0 * 1.7 * 0.4 * 1.3 * 2.5

    def test_zero_temperature_limit(self):
        sys_ = SystemSpec(temperature=1e-4)
        assert mk.noise_intensity(sys_, 0.3) == pytest.approx(2.0 * 0.3, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            mk.noise_intensity(SystemSpec(), 0.0)
        with pytest.raises(DomainError):
            mk.noise_intensity(SystemSpec(omega0=0.0), 0.1)


class TestCharRoots:
    def test_critical_damping_double_root(self):
        roots = mk.char_roots(2.0, 1.0)
        assert roots.omega_plus == pytest.approx(-1.0, rel=1e-12)
        assert roots.omega_minus == pytest.approx(-1.0, rel=1e-12)

    def test_weak_damping_expansion(self):
        roots = mk.char_roots(1e-3, 1.0)
        assert roots.omega_plus == pytest.approx(complex(-5e-4, 1.0), rel=1e-6)
        assert roots.omega_minus == pytest.approx(complex(-5e-4, -1.0), rel=1e-6)

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_vieta_identities(self, gamma, omega0):
        roots = mk.char_roots(gamma, omega0)
        total = roots.omega_plus + roots.omega_minus
        product = roots.omega_plus * roots.omega_minus
        assert total.real == pytest.approx(-gamma, rel=1e-12)
        assert abs(total.imag) <= 1e-12 * gamma
        assert product.real == pytest.approx(omega0**2, rel=1e-12)


class TestStationaryMoments:
    def test_closed_forms(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.2)
        x2, v2 = mk.stationary_moments_analytic(params)
        assert x2 == pytest.approx(0.5 * COTH_HALF, rel=1e-14)
        assert v2 == pytest.approx(0.5 * COTH_HALF, rel=1e-14)

    def test_gamma_independence(self):
        sys_ = SystemSpec()
        a = mk.stationary_moments_analytic(mk.MarkovParams.from_system(sys_, 0.01))
        b = mk.stationary_moments_analytic(mk.MarkovParams.from_system(sys_, 0.1))
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_classical_equipartition(self):
        sys_ = SystemSpec(hbar=1e-8)
        params = mk.MarkovParams.from_system(sys_, 0.2)
        x2, v2 = mk.stationary_moments_analytic(params)
        assert sys_.mass * v2 == pytest.approx(1.0, rel=1e-12)
        assert sys_.mass * sys_.omega0**2 * x2 == pytest.approx(1.0, rel=1e-12)

    def test_double_integral_confirms_convention(self):
        # quadrature of the collapsed Green's-function double integral with
        # the half-intensity symmetric correlation lands on the closed form;
        # the literal full-intensity reading would give exactly twice this
        sys_ = SystemSpec()
        for gamma in (0.05, 0.3, 2.5):
            params = mk.MarkovParams.from_system(sys_, gamma)
            x2, v2 = mk.stationary_moments_analytic(params)
            assert mk.stationary_double_integral(params, "x2") == pytest.approx(
                x2, rel=1e-9
            )
            assert mk.stationary_double_integral(params, "v2") == pytest.approx(
                v2, rel=1e-9
            )

    def test_params_invariant_enforced(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.1)
        assert params.underdamped
        assert not mk.MarkovParams.from_system(sys_, 5.0).underdamped


class TestGreensKernel:
    def test_zero_at_origin(self):
        roots = mk.char_roots(0.3, 1.0)
        assert mk.greens_solution_kernel(roots, 0.0) == 0.0

    def test_underdamped_sine_form(self):
        gamma, w0 = 0.3, 1.2
        roots = mk.char_roots(gamma, w0)
        wd = math.sqrt(w0**2 - gamma**2 / 4.0)
        t = np.linspace(0.0, 20.0, 200)
        expected = np.exp(-0.5 * gamma * t) * np.sin(wd * t) / wd
        np.testing.assert_allclose(
            mk.greens_solution_kernel(roots, t), expected, rtol=1e-12, atol=1e-15
        )

    def test_overdamped_real(self):
        roots = mk.char_roots(5.0, 1.0)
        t = np.linspace(0.0, 10.0, 50)
        vals = mk.greens_solution_kernel(roots, t)
        assert np.all(np.isfinite(vals))
        assert np.all(vals[1:] >= 0.0)

    def test_critical_limit_form(self):
        roots = mk.CharRoots(complex(-1.0, 0.0), complex(-1.0, 0.0))
        t = np.linspace(0.0, 5.0, 20)
        np.testing.assert_allclose(
            mk.greens_solution_kernel(roots, t), t * np.exp(-t), rtol=1e-12
        )

    def test_convolution_reproduces_euler_trajectory(self):
        # the free response of the drawn start plus the recorded noise kicks
        # convolved with the kernel rebuild the Euler trajectory to first
        # order in dt
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.2)
        dt, n = 0.01, 2000
        times, xs, vs, force = mk.sample_trajectories(params, dt, n, 1, seed=9,
                                                      method="euler")
        roots = params.roots()
        kick = force[:-1, 0] * dt / sys_.mass  # velocity increments
        kernel = mk.greens_solution_kernel(roots, times)
        rebuilt = (xs[0, 0] * (mk._greens_kernel_deriv(roots, times) + params.gamma * kernel)
                   + vs[0, 0] * kernel)
        for k in range(n):
            rebuilt[k + 1:] += kernel[1:n + 1 - k] * kick[k]
        scale = np.max(np.abs(xs[:, 0])) or 1.0
        assert np.max(np.abs(rebuilt - xs[:, 0])) / scale < 0.05


class TestSimulateSde:
    def test_zero_diffusion_trajectories_decay(self):
        # with the noise switched off the exact propagator is a pure damped
        # oscillator: from (1, 0) the position decays as e^{-gamma t/2}
        gamma, w0, dt = 0.5, 1.0, 0.05
        drift = np.array([[0.0, 1.0], [-w0**2, -gamma]])
        prop, q_dt = exact_discretization(drift, np.zeros((2, 2)), dt)
        assert np.allclose(q_dt, 0.0, atol=1e-18)
        state = np.array([1.0, 0.0])
        for _ in range(400):
            state = prop @ state
        t = 400 * dt
        wd = math.sqrt(w0**2 - gamma**2 / 4.0)
        expected = math.exp(-0.5 * gamma * t) * (
            math.cos(wd * t) + 0.5 * gamma / wd * math.sin(wd * t)
        )
        assert state[0] == pytest.approx(expected, rel=1e-10)

    def test_exact_step_noise_covariance_identity(self):
        # stationary covariance satisfies S = E S E^T + Q_dt for the exact
        # one-step update
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.2)
        drift = np.array([[0.0, 1.0], [-1.0, -0.2]])
        q_rate = params.noise / 2.0
        diffusion = np.array([[0.0, 0.0], [0.0, q_rate]])
        x2, v2 = mk.stationary_moments_analytic(params)
        stat = np.diag([x2, v2])
        prop, q_dt = exact_discretization(drift, diffusion, 0.7)
        np.testing.assert_allclose(
            prop @ stat @ prop.T + q_dt, stat, rtol=1e-12, atol=1e-14
        )

    def test_matches_analytic_within_three_sigma(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.1)
        res = mk.simulate_sde(params, dt=10.0, n_steps=200, n_traj=3000, seed=21)
        x2_ref, v2_ref = mk.stationary_moments_analytic(params)
        assert abs(res["x2"].mean - x2_ref) < 3.0 * res["x2"].se
        assert abs(res["v2"].mean - v2_ref) < 3.0 * res["v2"].se

    @pytest.mark.parametrize("gamma", (0.05, 0.2))
    @pytest.mark.parametrize("temp", (0.1, 1.0, 10.0))
    def test_parameter_grid_three_sigma(self, gamma, temp):
        sys_ = SystemSpec(temperature=temp)
        params = mk.MarkovParams.from_system(sys_, gamma)
        res = mk.simulate_sde(params, dt=1.0 / gamma, n_steps=100,
                              n_traj=1000, seed=5)
        x2_ref, v2_ref = mk.stationary_moments_analytic(params)
        assert abs(res["x2"].mean - x2_ref) < 3.5 * res["x2"].se
        assert abs(res["v2"].mean - v2_ref) < 3.5 * res["v2"].se

    def test_determinism_bit_exact(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.2)
        a = mk.simulate_sde(params, dt=5.0, n_steps=50, n_traj=64, seed=3)
        b = mk.simulate_sde(params, dt=5.0, n_steps=50, n_traj=64, seed=3)
        assert a["x2"].mean == b["x2"].mean
        assert a["v2"].se == b["v2"].se

    def test_chunking_invariance(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.2)
        a = mk.simulate_sde(params, dt=5.0, n_steps=50, n_traj=100, seed=3,
                            chunk_size=7)
        b = mk.simulate_sde(params, dt=5.0, n_steps=50, n_traj=100, seed=3,
                            chunk_size=100)
        assert a["x2"].mean == pytest.approx(b["x2"].mean, rel=1e-12)

    def test_euler_mode_requires_small_step(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.2)
        with pytest.raises(DomainError, match="euler"):
            mk.simulate_sde(params, dt=0.5, n_steps=10, n_traj=4, seed=0,
                            method="euler")

    def test_euler_mode_agrees_roughly(self):
        sys_ = SystemSpec()
        params = mk.MarkovParams.from_system(sys_, 0.5)
        res = mk.simulate_sde(params, dt=0.01, n_steps=4000, n_traj=400,
                              seed=11, method="euler")
        x2_ref, _ = mk.stationary_moments_analytic(params)
        assert res["x2"].mean == pytest.approx(x2_ref, rel=0.15)

    def test_noise_factor_semidefinite(self):
        cov = np.array([[1e-30, 0.0], [0.0, 2.0]])
        factor = noise_factor(cov)
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-15)
