"""Finite-bath realization: sampling, noise statistics, memory dynamics."""

import math
import tracemalloc

import numpy as np
import pytest

from qlesim.bath import BathSpec, ModeSet, SystemSpec, discretize_bath
from qlesim.errors import DomainError, UnsupportedBathError
from qlesim.quadrature import QuadratureConfig
from qlesim import fdt, microbath as mb
from qlesim.sde import trajectory_seeds


def make_bath(gamma=0.5, cutoff=3.0, n_modes=300):
    bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
    return bath, discretize_bath(bath, n_modes)


class TestSampling:
    def test_variances_classical_limit(self):
        sys_ = SystemSpec(hbar=1e-8)
        modes = ModeSet(omega=[2.0], mass=[1.5], coupling=[1.0])
        var_s, var_p = mb.thermal_variances(modes, sys_)
        kt = sys_.kB * sys_.temperature
        assert var_s[0] == pytest.approx(kt / (1.5 * 4.0), rel=1e-8)
        assert var_p[0] == pytest.approx(1.5 * kt, rel=1e-8)

    def test_variances_zero_point(self):
        sys_ = SystemSpec(temperature=1e-6)
        modes = ModeSet(omega=[2.0], mass=[1.5], coupling=[1.0])
        var_s, var_p = mb.thermal_variances(modes, sys_)
        assert var_s[0] == pytest.approx(1.0 / (2.0 * 1.5 * 2.0), rel=1e-9)
        assert var_p[0] == pytest.approx(1.5 * 2.0 / 2.0, rel=1e-9)

    def test_sample_variance_self_consistent(self):
        # 1e6 draws reproduce the prescribed variance within 4 standard
        # errors of a variance estimate, SE = var * sqrt(2/n)
        sys_ = SystemSpec()
        modes = ModeSet(omega=[1.3], mass=[0.8], coupling=[1.0])
        rng = np.random.default_rng(7)
        n = 1_000_000
        var_s, var_p = mb.thermal_variances(modes, sys_)
        draws_s = rng.standard_normal(n) * math.sqrt(var_s[0])
        draws_p = rng.standard_normal(n) * math.sqrt(var_p[0])
        for draws, var in ((draws_s, var_s[0]), (draws_p, var_p[0])):
            est = float(np.var(draws, ddof=1))
            se = var * math.sqrt(2.0 / n)
            assert abs(est - var) < 4.0 * se

    def test_sampler_returns_matching_counts(self):
        sys_ = SystemSpec()
        _, modes = make_bath()
        ics = mb.sample_initial_conditions(modes, sys_, x0=0.3, rng=11)
        assert ics.count == modes.count
        assert ics.x0 == 0.3


class TestNoise:
    def test_single_mode_cosine(self):
        modes = ModeSet(omega=[2.0], mass=[1.0], coupling=[0.7])
        ics = mb.BathInitialConditions(displacement=[1.0], momentum=[0.0], x0=0.0)
        grid = mb.TrajectoryGrid(dt=0.01, n_steps=100)
        f = mb.noise_trajectory(modes, ics, grid)
        np.testing.assert_allclose(f, 0.7 * np.cos(2.0 * grid.times), rtol=1e-14)

    def test_mean_vanishes_at_grid_times(self):
        sys_ = SystemSpec()
        _, modes = make_bath()
        taus = np.linspace(0.0, 4.5, 10)
        stats = mb.noise_ensemble_stats(modes, sys_, taus, n_real=10_000, seed=2)
        for est in stats["mean"]:
            assert abs(est.mean) < 4.0 * est.se

    def test_autocorr_matches_exact_discrete_sum(self):
        # Monte Carlo against the exact finite-N cosine sum: pure sampling
        # error, no discretization systematic
        sys_ = SystemSpec()
        _, modes = make_bath()
        taus = np.linspace(0.0, 5.0, 6)
        stats = mb.noise_ensemble_stats(modes, sys_, taus, n_real=20_000, seed=3,
                                        origins=np.arange(0.0, 10.1, 0.5))
        var_s, _ = mb.thermal_variances(modes, sys_)
        for tau, est in zip(taus, stats["autocorr"]):
            exact = float((modes.coupling**2 * var_s * np.cos(modes.omega * tau)).sum())
            assert abs(est.mean - exact) < 4.0 * est.se

    def test_discrete_sum_tracks_continuum_quadrature(self):
        # deterministic discretization systematic stays inside 5% of S(0)
        sys_ = SystemSpec()
        bath, modes = make_bath(n_modes=1000)
        var_s, _ = mb.thermal_variances(modes, sys_)
        s0 = mb.noise_autocorrelation_quadrature(sys_, bath, 0.0)
        for tau in np.linspace(0.0, 5.0, 11):
            exact = float((modes.coupling**2 * var_s * np.cos(modes.omega * tau)).sum())
            target = mb.noise_autocorrelation_quadrature(sys_, bath, tau)
            assert abs(exact - target) / s0 < 0.05

    def test_commutator_analytic_form(self):
        sys_ = SystemSpec()
        modes = ModeSet(omega=[2.0], mass=[1.0], coupling=[0.5])
        got = mb.noise_commutator_analytic(modes, sys_, 1.3)
        expected = -2.0 * (0.25 / (2.0 * 2.0)) * math.sin(2.6)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_quadrature_requires_cutoff_bath(self):
        sys_ = SystemSpec()
        with pytest.raises(UnsupportedBathError):
            mb.noise_autocorrelation_quadrature(sys_, BathSpec.strict_ohmic(0.1), 0.0)


class TestInitialSlip:
    def test_zero_displacement(self):
        _, modes = make_bath()
        assert mb.initial_slip(modes, 0.0, 1.0) == 0.0

    def test_short_time_limit(self):
        _, modes = make_bath()
        x0 = 0.7
        expected = x0 * float(np.sum(modes.kernel_weights()))
        assert mb.initial_slip(modes, x0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_identity_noise_equals_shifted_minus_slip(self):
        # f(t) = g(t) - mu(t) x0 exactly per realization
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=64)
        x0 = 0.9
        ics = mb.sample_initial_conditions(modes, sys_, x0, rng=5)
        grid = mb.TrajectoryGrid(dt=0.02, n_steps=300)
        f = mb.noise_trajectory(modes, ics, grid)
        shift = modes.coupling * x0 / (modes.mass * modes.omega**2)
        undisplaced = mb.BathInitialConditions(
            displacement=ics.displacement + shift, momentum=ics.momentum, x0=0.0)
        g = mb.noise_trajectory(modes, undisplaced, grid)
        slip = mb.initial_slip(modes, x0, grid.times)
        assert np.max(np.abs(f - (g - slip))) < 1e-12


class TestIntegrateGle:
    def test_uncoupled_oscillator_cosine(self):
        # a zero-coupling mode realizes the noise-free, memory-free limit
        sys_ = SystemSpec()
        modes = ModeSet(omega=[1.0], mass=[1.0], coupling=[0.0])
        ics = mb.BathInitialConditions(displacement=[0.0], momentum=[0.0], x0=1.0)
        grid = mb.TrajectoryGrid(dt=0.01, n_steps=1000)
        x, v = mb.integrate_gle(modes, ics, sys_, grid)
        np.testing.assert_allclose(x, np.cos(grid.times), atol=1e-8)
        np.testing.assert_allclose(v, -np.sin(grid.times), atol=1e-8)

    def test_grid_must_resolve_fastest_mode(self):
        sys_ = SystemSpec()
        _, modes = make_bath(cutoff=3.0)
        grid = mb.TrajectoryGrid(dt=0.05, n_steps=10)
        ics = mb.sample_initial_conditions(modes, sys_, 0.0, rng=0)
        with pytest.raises(DomainError, match="resolve|0.1"):
            mb.integrate_gle(modes, ics, sys_, grid)

    def test_ensemble_matches_fdt_three_sigma(self):
        sys_ = SystemSpec()
        bath, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        dt = 0.03
        grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(40.0 / dt)))
        res = mb.gle_ensemble_moments(modes, sys_, grid, n_real=2000, seed=23)
        x2_ref = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig())
        v2_ref = fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig())
        assert abs(res["x2"].mean - x2_ref) < 3.0 * res["x2"].se
        assert abs(res["v2"].mean - v2_ref) < 3.0 * res["v2"].se

    def test_classical_equipartition_three_sigma(self):
        sys_ = SystemSpec(hbar=1e-6)
        bath, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        dt = 0.03
        grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(40.0 / dt)))
        res = mb.gle_ensemble_moments(modes, sys_, grid, n_real=1500, seed=31)
        kt = sys_.kB * sys_.temperature
        assert abs(sys_.mass * res["v2"].mean - kt) < 3.0 * sys_.mass * res["v2"].se

    def test_determinism_bit_exact(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=32)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        a = mb.gle_ensemble_moments(modes, sys_, grid, n_real=16, seed=4)
        b = mb.gle_ensemble_moments(modes, sys_, grid, n_real=16, seed=4)
        assert a["x2"].mean == b["x2"].mean

    def test_single_trajectory_deterministic_given_ics(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=16)
        ics = mb.sample_initial_conditions(modes, sys_, 0.0, rng=12)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=50)
        x1, v1 = mb.integrate_gle(modes, ics, sys_, grid)
        x2, v2 = mb.integrate_gle(modes, ics, sys_, grid)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(v1, v2)


class TestNormalModes:
    @pytest.mark.parametrize("x0", (0.0, 0.7))
    def test_ensemble_within_four_sigma_of_exact(self, x0):
        sys_ = SystemSpec()
        _, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=int(round(40.0 / 0.03)))
        res = mb.gle_ensemble_moments(modes, sys_, grid, n_real=2000, seed=41, x0=x0)
        exact = mb.gle_moments_exact(modes, sys_, grid, x0=x0)
        for name, value in zip(("x2", "v2"), exact):
            assert abs(res[name].mean - value) < 4.0 * res[name].se, (name, value)

    def test_exact_tracks_continuum_quadrature(self):
        # the criterion-6 bath: 1.07823 vs 1.08082 and 1.15097 vs 1.15464
        sys_ = SystemSpec()
        bath, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=1000)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=int(round(40.0 / 0.03)))
        x2, v2 = mb.gle_moments_exact(modes, sys_, grid)
        x2_ref = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig())
        v2_ref = fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig())
        assert abs(x2 / x2_ref - 1.0) < 5e-3, (x2, x2_ref)
        assert abs(v2 / v2_ref - 1.0) < 5e-3, (v2, v2_ref)

    @pytest.mark.parametrize("omega0", (1.0, 0.0))
    def test_trajectory_solves_memory_equation(self, omega0):
        # m v' + Int mu(t - s) v(s) ds + m w0^2 x - f, by central differences
        # and the trapezoidal rule, is second order in dt
        sys_ = SystemSpec(omega0=omega0)
        _, modes = make_bath(n_modes=64)
        ics = mb.sample_initial_conditions(modes, sys_, 0.4, rng=9)

        def residual(dt):
            grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(10.0 / dt)))
            x, v = mb.integrate_gle(modes, ics, sys_, grid, v0=0.3)
            f = mb.noise_trajectory(modes, ics, grid)
            mu = mb.initial_slip(modes, 1.0, grid.times)
            worst = 0.0
            for i in range(1, grid.n_steps):
                w = mu[i::-1] * v[: i + 1]
                memory = dt * (w.sum() - 0.5 * (w[0] + w[-1]))
                accel = (v[i + 1] - v[i - 1]) / (2.0 * dt)
                worst = max(worst, abs(sys_.mass * (accel + omega0**2 * x[i])
                                       + memory - f[i]))
            return worst / np.max(np.abs(f))

        coarse, fine = residual(0.01), residual(0.005)
        assert coarse < 1e-3, coarse
        assert fine < coarse / 3.0, (coarse, fine)

    def test_moments_exact_at_coarse_dt(self):
        # final-time moments carry no step error, so dt * max mode frequency
        # may exceed the 0.1 that series sampled on the grid need
        sys_ = SystemSpec()
        _, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        grid = mb.TrajectoryGrid(dt=0.05, n_steps=800)
        res = mb.gle_ensemble_moments(modes, sys_, grid, n_real=2000, seed=43)
        exact = mb.gle_moments_exact(modes, sys_, grid)
        for name, value in zip(("x2", "v2"), exact):
            assert abs(res[name].mean - value) < 4.0 * res[name].se, (name, value)

    def test_sampled_series_must_resolve_fastest_mode(self):
        sys_ = SystemSpec()
        _, modes = make_bath(cutoff=3.0)
        grid = mb.TrajectoryGrid(dt=0.05, n_steps=10)
        ics = mb.sample_initial_conditions(modes, sys_, 0.0, rng=0)
        with pytest.raises(DomainError, match="0.1"):
            mb.sample_trajectories(modes, sys_, grid, 2, seed=1)
        with pytest.raises(DomainError, match="0.1"):
            mb.noise_trajectory(modes, ics, grid)

    def test_memory_does_not_grow_with_steps(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=300)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=4000)
        tracemalloc.start()
        try:
            mb.gle_ensemble_moments(modes, sys_, grid, n_real=64, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_sample_trajectories_are_the_ensemble_realizations(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=40)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=200)
        times, x, v, f = mb.sample_trajectories(modes, sys_, grid, 3, seed=5, x0=0.2)
        assert x.shape == v.shape == f.shape == (201, 3)
        np.testing.assert_array_equal(times, grid.times)
        np.testing.assert_array_equal(x[0], 0.2)
        np.testing.assert_array_equal(v[0], 0.0)
        res = mb.gle_ensemble_moments(modes, sys_, grid, n_real=3, seed=5, x0=0.2)
        assert res["x2"].mean == pytest.approx(np.mean(x[-1] ** 2), rel=1e-12)
        assert res["v2"].mean == pytest.approx(np.mean(v[-1] ** 2), rel=1e-12)
        # realization 2 draws s then p from its (seed, 2) stream
        draws = trajectory_seeds(5, [2])[0].standard_normal(2 * modes.count)
        sd_s, sd_p = np.sqrt(mb.thermal_variances(modes, sys_))
        ics = mb.BathInitialConditions(displacement=draws[:modes.count] * sd_s,
                                       momentum=draws[modes.count:] * sd_p, x0=0.2)
        np.testing.assert_allclose(f[:, 2], mb.noise_trajectory(modes, ics, grid),
                                   rtol=0, atol=1e-12)
        x2, v2 = mb.integrate_gle(modes, ics, sys_, grid)
        np.testing.assert_allclose(x[:, 2], x2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v[:, 2], v2, rtol=0, atol=1e-12)


class TestEmptyEnsembles:
    @pytest.mark.parametrize("kwargs", ({"n_real": 0}, {"n_real": 4, "chunk_size": 0}))
    def test_noise_stats_rejects(self, kwargs):
        _, modes = make_bath(n_modes=16)
        with pytest.raises(DomainError, match="n_real and chunk_size"):
            mb.noise_ensemble_stats(modes, SystemSpec(), [0.0], seed=1, **kwargs)

    @pytest.mark.parametrize("kwargs", ({"n_real": 0}, {"n_real": 4, "chunk_size": 0}))
    def test_gle_moments_rejects(self, kwargs):
        _, modes = make_bath(n_modes=16)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=10)
        with pytest.raises(DomainError, match="n_real and chunk_size"):
            mb.gle_ensemble_moments(modes, SystemSpec(), grid, seed=1, **kwargs)
