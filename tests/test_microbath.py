"""Finite-bath realization: sampling, noise statistics, memory dynamics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, lapack

from qlesim.bath import BathSpec, ModeSet, SystemSpec, discretize_bath
from qlesim.errors import (ConvergenceError, DomainError, UnstableIntegrationError,
                           UnsupportedBathError)
from qlesim.quadrature import QuadratureConfig
from qlesim import cli, fdt, microbath as mb, sde


def make_bath(gamma=0.5, cutoff=3.0, n_modes=300):
    bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
    return bath, discretize_bath(bath, n_modes)


def block_stream(seed, block):
    """The (seed, block) SFC64 stream, built here and not taken from sde, so that it
    stays an oracle: realization 64 * block + k is column k of its tiles."""
    key = np.random.SeedSequence(seed, spawn_key=(0x5DE, block))
    return np.random.Generator(np.random.SFC64(key))


def pass_values(rows, seed, block):
    """(k, 64) values of a pass over the k value ``rows`` on one block: the
    stream's first (k, 64) tile times F = T^T, the QR factor T of rows^T."""
    factor = np.linalg.qr(rows.T, mode="r").T
    return factor @ block_stream(seed, block).standard_normal((factor.shape[1], 64))


def dump_normals(rows, seed, block):
    """The (2N, 64) normals z of a block's dumped realizations, s rows then p
    rows: z = zeta + Q (w - Q^T zeta), with w the stream's first (2, 64)
    normals, zeta its next (2N, 64) and Q the orthonormal QR basis of the
    x(T), v(T) ``rows``."""
    stream = block_stream(seed, block)
    w, zeta = stream.standard_normal((2, 64)), stream.standard_normal((rows.shape[1], 64))
    basis = np.linalg.qr(rows.T)[0]
    return zeta + basis @ (w - basis.T @ zeta)


def value_times(taus, origins):
    """The noise times of a pass, sorted and distinct: its value rows are x(T)
    and v(T), if sampled, then the noise at these times."""
    return np.unique(np.concatenate([taus, origins, np.add.outer(taus, origins).ravel()]))


def final_rows(modes, sys_, grid):
    """The (2, 2N) rows of x(T) and v(T) at the final grid time."""
    return mb._NormalModes(modes, sys_).response(np.array([grid.dt * grid.n_steps]), 0.0)[1]


def thermal_start(modes, sys_, normals):
    """Mode displacements s and momenta p of one realization's normals."""
    sd_s, sd_p = np.sqrt(mb.thermal_variances(modes, sys_))
    return normals[:modes.count] * sd_s, normals[modes.count:] * sd_p


def mode_sum(modes, times, q, p):
    """sum_j c_j [q_j cos(w_j t) + p_j / (m_j w_j) sin(w_j t)]: the noise of
    mode coordinates q and momenta p at t = 0."""
    phases = np.multiply.outer(times, modes.omega)
    return np.cos(phases) @ (modes.coupling * q) + np.sin(phases) @ (
        modes.coupling * p / (modes.mass * modes.omega))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hessian(modes, sys_):
    """Dense Hessian of the oscillator and its modes in (x, q_1..q_N)."""
    out = np.diag(np.concatenate((
        [sys_.mass * sys_.omega0**2 + modes.kernel_weights().sum()], modes.mass * modes.omega**2)))
    out[0, 1:] = out[1:, 0] = -modes.coupling
    return out


def phase_space(modes, sys_):
    """Generator G of y' = G y for y = (x, q_1..q_N, x', q_1'..q_N'), the
    start mean per unit x(0) of the displaced preparation, and the thermal
    start covariance: an oracle independent of the normal modes."""
    n = modes.count
    masses = np.concatenate(([sys_.mass], modes.mass))
    gen = np.zeros((2 * n + 2, 2 * n + 2))
    gen[:n + 1, n + 1:] = np.eye(n + 1)
    gen[n + 1:, :n + 1] = -hessian(modes, sys_) / masses[:, None]
    unit = np.zeros(2 * n + 2)
    unit[:n + 1] = np.concatenate(([1.0], modes.coupling / (modes.mass * modes.omega**2)))
    var_s, var_p = mb.thermal_variances(modes, sys_)
    cov = np.diag(np.concatenate(([0.0], var_s, [0.0], var_p / modes.mass**2)))
    return gen, unit, cov


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
        # x and v are maps of a realization's 2N normals that start at (x0, 0)
        sys_ = SystemSpec()
        _, modes = make_bath()
        mean, rows = mb._NormalModes(modes, sys_).response(np.array([0.0]), 0.3)
        assert rows.shape == (2, 2 * modes.count)
        np.testing.assert_array_equal(mean, [0.3, 0.0])
        np.testing.assert_array_equal(rows, 0.0)


class TestNoise:
    def test_single_mode_cosine(self):
        # the normals of s = 1, p = 0
        sys_ = SystemSpec()
        modes = ModeSet(omega=[2.0], mass=[1.0], coupling=[0.7])
        grid = mb.TrajectoryGrid(dt=0.01, n_steps=100)
        sd_s, _ = np.sqrt(mb.thermal_variances(modes, sys_))
        f = mb._noise_rows(modes, sys_, grid.times) @ [1.0 / sd_s[0], 0.0]
        np.testing.assert_allclose(f, 0.7 * np.cos(2.0 * grid.times), rtol=1e-14)

    def test_mean_vanishes_at_grid_times(self):
        sys_ = SystemSpec()
        _, modes = make_bath()
        taus = np.linspace(0.0, 4.5, 10)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        stats = mb.ensemble_stats(modes, sys_, grid, taus, 10_000, seed=2)[0]
        for est in stats["mean"]:
            assert abs(est.mean) < 4.0 * est.se

    def test_autocorr_matches_exact_discrete_sum(self):
        # Monte Carlo against the exact finite-N cosine sum: pure sampling
        # error, no discretization systematic
        sys_ = SystemSpec()
        _, modes = make_bath()
        taus = np.linspace(0.0, 5.0, 6)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        stats = mb.ensemble_stats(modes, sys_, grid, taus, 20_000, seed=3,
                                  origins=np.arange(0.0, 10.1, 0.5))[0]
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
        # f(t) = g(t) - mu(t) x0 exactly per realization, with g the mode
        # sum of the undisplaced coordinates q_j(0) = s_j + c_j x0 / (m_j w_j^2)
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=64)
        x0 = 0.9
        grid = mb.TrajectoryGrid(dt=0.02, n_steps=300)
        f = mb.ensemble_stats(modes, sys_, grid, [], 3, seed=5, origins=[], x0=x0,
                              n_dump=3)[2][3][:, 2]
        s, p = thermal_start(modes, sys_, dump_normals(final_rows(modes, sys_, grid), 5, 0)[:, 2])
        shift = modes.coupling * x0 / (modes.mass * modes.omega**2)
        g = mode_sum(modes, grid.times, s + shift, p)
        slip = mb.initial_slip(modes, x0, grid.times)
        assert np.max(np.abs(f - (g - slip))) < 1e-12


class TestIntegrateGle:
    def test_uncoupled_oscillator_cosine(self):
        # a zero-coupling mode realizes the noise-free, memory-free limit
        sys_ = SystemSpec()
        modes = ModeSet(omega=[1.0], mass=[1.0], coupling=[0.0])
        grid = mb.TrajectoryGrid(dt=0.01, n_steps=1000)
        _, x, v, f = mb.ensemble_stats(modes, sys_, grid, [], 1, seed=0, origins=[], x0=1.0,
                                       n_dump=1)[2]
        np.testing.assert_allclose(x[:, 0], np.cos(grid.times), atol=1e-8)
        np.testing.assert_allclose(v[:, 0], -np.sin(grid.times), atol=1e-8)
        np.testing.assert_array_equal(f, 0.0)

    def test_grid_must_resolve_fastest_mode(self):
        _, modes = make_bath(cutoff=3.0)
        mb.TrajectoryGrid(dt=0.03, n_steps=10).check_resolves(modes)
        with pytest.raises(DomainError, match="resolve|0.1"):
            mb.TrajectoryGrid(dt=0.05, n_steps=10).check_resolves(modes)

    def test_ensemble_matches_fdt_three_sigma(self):
        sys_ = SystemSpec()
        bath, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        dt = 0.03
        grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(40.0 / dt)))
        res = mb.ensemble_stats(modes, sys_, grid, [], 2000, seed=23, origins=[])[1]
        x2_ref = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig())
        v2_ref = fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig())
        assert abs(res["x2"].mean - x2_ref) < 3.0 * res["x2"].se
        assert abs(res["v2"].mean - v2_ref) < 3.0 * res["v2"].se

    def test_classical_equipartition_three_sigma(self):
        sys_ = SystemSpec(hbar=1e-6)
        bath, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        dt = 0.03
        grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(40.0 / dt)))
        res = mb.ensemble_stats(modes, sys_, grid, [], 1500, seed=31, origins=[])[1]
        kt = sys_.kB * sys_.temperature
        assert abs(sys_.mass * res["v2"].mean - kt) < 3.0 * sys_.mass * res["v2"].se

    def test_determinism_bit_exact(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=32)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        a, b = (mb.ensemble_stats(modes, sys_, grid, [], 16, seed=4, origins=[])[1]
                for _ in range(2))
        assert a["x2"].mean == b["x2"].mean

    def test_single_trajectory_deterministic_given_ics(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=16)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=50)
        first, second = (mb.ensemble_stats(modes, sys_, grid, [], 1, seed=12, origins=[],
                                           n_dump=1)[2] for _ in range(2))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestNormalModes:
    @pytest.mark.parametrize("x0", (0.0, 0.7))
    def test_ensemble_within_four_sigma_of_exact(self, x0):
        sys_ = SystemSpec()
        _, modes = make_bath(gamma=0.5, cutoff=3.0, n_modes=300)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=int(round(40.0 / 0.03)))
        res = mb.ensemble_stats(modes, sys_, grid, [], 2000, seed=41, origins=[], x0=x0)[1]
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

        def residual(dt):
            grid = mb.TrajectoryGrid(dt=dt, n_steps=int(round(10.0 / dt)))
            _, x, v, f = mb.ensemble_stats(modes, sys_, grid, [], 1, seed=9, origins=[],
                                           x0=0.4, n_dump=1)[2]
            x, v, f = x[:, 0], v[:, 0], f[:, 0]
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
        res = mb.ensemble_stats(modes, sys_, grid, [], 2000, seed=43, origins=[])[1]
        exact = mb.gle_moments_exact(modes, sys_, grid)
        for name, value in zip(("x2", "v2"), exact):
            assert abs(res[name].mean - value) < 4.0 * res[name].se, (name, value)

    def test_sampled_series_must_resolve_fastest_mode(self):
        sys_ = SystemSpec()
        _, modes = make_bath(cutoff=3.0)
        grid = mb.TrajectoryGrid(dt=0.05, n_steps=10)
        with pytest.raises(DomainError, match="0.1"):
            mb.ensemble_stats(modes, sys_, grid, [], 2, seed=1, origins=[], n_dump=2)

    def test_memory_does_not_grow_with_steps(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=300)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=4000)
        tracemalloc.start()
        try:
            mb.ensemble_stats(modes, sys_, grid, [], 64, seed=1, origins=[])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_memory_does_not_grow_with_grid_length(self):
        # only the final time is propagated: the 1e7-step grid is never built
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=20)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=10_000_000)
        tracemalloc.start()
        try:
            mb.ensemble_stats(modes, sys_, grid, [], 16, seed=1, origins=[])
            mb.gle_moments_exact(modes, sys_, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_pass_memory_bounded_by_the_chunk(self, monkeypatch):
        # the CLI's one pass at N = 1000 and 2,048 realizations, normal modes
        # included: the (2N, 2048) draws (32.8 MB) and the (N+1) x N s and p
        # rows (16 MB) are never held
        peak = pass_peak(1000, monkeypatch)
        assert peak < 8e6, peak

    def test_one_draw_buffer_serves_every_chunk(self):
        # a new buffer per chunk kept two chunks of draws alive at the
        # turnover: 2.04 (noise) and 2.63 (GLE) chunks of peak; a worker
        # group holds one (2N, 64) tile and its values, never the draws
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=500)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        draws = 2 * modes.count * 2048 * 8
        for taus, origins in (([0.0, 0.5], None), ([], [])):
            peak = traced_peak(lambda: mb.ensemble_stats(modes, sys_, grid, taus, 4096, seed=1,
                                                         origins=origins, chunk_size=2048))
            assert peak <= 1.5 * draws, peak / draws

    def test_dump_memory_does_not_grow_with_steps_times_modes(self):
        # the series were built from (n_steps + 1) x (N + 1) arrays: 290 MB
        # at 20,000 steps against 30 MB at 2,000
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=300)
        short, long = (traced_peak(lambda: mb.ensemble_stats(
            modes, sys_, mb.TrajectoryGrid(dt=0.03, n_steps=n_steps), [], 2, seed=1, origins=[],
            n_dump=2)) for n_steps in (2000, 20_000))
        assert long <= 2 * short, (short, long)

    @pytest.mark.parametrize("omega0", (1.0, 0.0))
    @pytest.mark.parametrize("x0", (0.0, 0.7))
    def test_exact_moments_match_phase_space_exponential(self, x0, omega0):
        # the row norms against expm of the (2N + 2) phase-space generator
        # applied to the displaced thermal start
        sys_ = SystemSpec(omega0=omega0)
        _, modes = make_bath(n_modes=40)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=200)
        gen, unit, cov = phase_space(modes, sys_)
        prop = expm(gen * grid.dt * grid.n_steps)
        mean, cov = prop @ (x0 * unit), prop @ cov @ prop.T
        v = modes.count + 1
        expected = (mean[0] ** 2 + cov[0, 0], mean[v] ** 2 + cov[v, v])
        assert mb.gle_moments_exact(modes, sys_, grid, x0=x0) == pytest.approx(expected,
                                                                                rel=1e-10)

    @pytest.mark.parametrize("seed", (51, 52, 53))
    def test_sampled_std_error_matches_isserlis(self, seed):
        # x(T) ~ N(mu, s2), so by Isserlis y = x^2 has var(y) = 2 s2^2 + 4 mu^2 s2
        # and central fourth moment m4 = 3 a^4 + 60 a^2 b^2 + 60 b^4 with
        # a = 2 mu s, b = s2.  n times the sample variance of y has mean
        # n var(y) and variance n (m4 - var(y)^2) (a chi^2 law for Gaussian y),
        # so the standard error has relative spread sqrt((m4 / var^2 - 1) / n) / 2
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=40)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        n_real, x0 = 2000, 0.7
        gen, unit, cov = phase_space(modes, sys_)
        prop = expm(gen * grid.dt * grid.n_steps)
        mu, s2 = (prop @ (x0 * unit))[0], (prop @ cov @ prop.T)[0, 0]
        var = 2.0 * s2**2 + 4.0 * mu**2 * s2
        a, b = 2.0 * mu * math.sqrt(s2), s2
        m4 = 3.0 * a**4 + 60.0 * a**2 * b**2 + 60.0 * b**4
        spread = math.sqrt((m4 / var**2 - 1.0) / n_real) / 2.0
        se = mb.ensemble_stats(modes, sys_, grid, [], n_real, seed, origins=[], x0=x0)[1]["x2"].se
        assert abs(se / math.sqrt(var / n_real) - 1.0) < 4.0 * spread, (se, spread)

    def test_one_pass_gives_noise_stats_and_moments(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=40)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
        taus, origins = [0.0, 0.5, 1.0], [0.0, 0.5, 2.0]
        stats, res, dump = mb.ensemble_stats(modes, sys_, grid, taus, 300, seed=6,
                                             origins=origins, x0=0.3)
        assert dump is None
        # x(T) and v(T) lead the factor, so the noise times leave their draws as they are
        moments = mb.ensemble_stats(modes, sys_, grid, [], 300, seed=6, origins=[], x0=0.3)[1]
        for a, b in [(res[name], moments[name]) for name in ("x2", "v2")]:
            assert (a.mean, a.se, a.n) == pytest.approx((b.mean, b.se, b.n), rel=1e-12)
        # the noise of the pass against its realizations rebuilt from the streams
        times = value_times(taus, origins)
        at = lambda t: np.searchsorted(times, t)
        rows = np.vstack((final_rows(modes, sys_, grid), mb._noise_rows(modes, sys_, times)))
        y = np.hstack([pass_values(rows, 6, b) for b in range(5)])[-len(times):, :300]
        np.testing.assert_array_equal(stats["taus"], taus)
        for j, tau in enumerate(taus):
            corr = np.mean([y[at(t0)] * y[at(t0 + tau)] for t0 in origins], axis=0)
            for est, values in ((stats["mean"][j], y[at(tau)]), (stats["autocorr"][j], corr)):
                expected = (values.mean(), values.std(ddof=1) / math.sqrt(300), 300)
                assert (est.mean, est.se, est.n) == pytest.approx(expected, rel=1e-12)

    def test_sample_trajectories_are_the_ensemble_realizations(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=40)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=200)
        _, res, (times, x, v, f) = mb.ensemble_stats(modes, sys_, grid, [], 70, seed=5,
                                                     origins=[], x0=0.2, n_dump=70)
        assert x.shape == v.shape == f.shape == (201, 70)
        np.testing.assert_array_equal(times, grid.times)
        np.testing.assert_array_equal(x[0], 0.2)
        np.testing.assert_array_equal(v[0], 0.0)
        assert res["x2"].mean == pytest.approx(np.mean(x[-1] ** 2), rel=1e-12)
        assert res["v2"].mean == pytest.approx(np.mean(v[-1] ** 2), rel=1e-12)
        # realization 66 is column 2 of block 1: its normals z reproduce the
        # pass's x(T), v(T) draws, and its x and v match the exponential of the
        # phase-space generator
        rows = final_rows(modes, sys_, grid)
        z = dump_normals(rows, 5, 1)[:, 2]
        np.testing.assert_allclose(rows @ z, pass_values(rows, 5, 1)[:, 2], rtol=0, atol=1e-12)
        s, p = thermal_start(modes, sys_, z)
        np.testing.assert_allclose(f[:, 66], mode_sum(modes, grid.times, s, p),
                                   rtol=0, atol=1e-12)
        gen, unit, _ = phase_space(modes, sys_)
        start = 0.2 * unit + np.concatenate(([0.0], s, [0.0], p / modes.mass))
        states = np.array([expm(gen * t) @ start for t in grid.times])
        np.testing.assert_allclose(x[:, 66], states[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(v[:, 66], states[:, modes.count + 1], rtol=0, atol=1e-12)

    def test_value_factor_reproduces_the_gram_matrix(self, monkeypatch):
        # the criterion-6 bath at the CLI's lags and origins: 53 value rows of
        # numerical rank below 53, whose lower-triangular k x k factor F must
        # still have F F^T = R R^T to rounding
        sys_, (_, modes) = SystemSpec(), make_bath(0.5, 3.0, 1000)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=int(round(20.0 / 0.5 / 0.03)))
        taus, origins = np.linspace(0.0, 5.0, 11), np.arange(0.0, 20.0001, 0.5)
        final = mb._NormalModes(modes, sys_).response(np.array([grid.dt * grid.n_steps]), 0.0)
        factors, draw = [], mb._draw
        monkeypatch.setattr(mb, "_draw", lambda streams, factor, out: (
            factors.append(factor), draw(streams, factor, out)))
        mb.ensemble_stats(modes, sys_, grid, taus, 64, seed=1, origins=origins)
        rows = np.vstack((final[1], mb._noise_rows(modes, sys_, value_times(taus, origins))))
        gram, (factor,) = rows @ rows.T, factors
        assert factor.shape == (53, 53) and np.linalg.matrix_rank(rows) < 53
        np.testing.assert_array_equal(np.triu(factor, 1), 0.0)
        assert np.linalg.norm(factor @ factor.T - gram) <= 1e-13 * np.linalg.norm(gram)

    def test_realizations_do_not_depend_on_ensemble_or_chunk_size(self):
        sys_ = SystemSpec()
        _, modes = make_bath(n_modes=40)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=50)
        dump = lambda n_traj: mb.ensemble_stats(modes, sys_, grid, [], n_traj, seed=5,
                                                origins=[], n_dump=n_traj)[2][1:]
        first = [a[:, :3] for a in dump(3)]
        for n_traj in (64, 65, 200):
            assert [a[:, :3].tobytes() for a in dump(n_traj)] == [a.tobytes() for a in first], \
                n_traj
        moments = lambda chunk_size: mb.ensemble_stats(modes, sys_, grid, [], 200, seed=5,
                                                       origins=[], chunk_size=chunk_size)[1]
        serial = moments(4096)
        for chunk_size in (1, 64, 65):
            res = moments(chunk_size)
            for name in ("x2", "v2"):
                assert res[name].mean == pytest.approx(serial[name].mean, rel=1e-12)
                assert res[name].se == pytest.approx(serial[name].se, rel=1e-12)


def mass_weighted_hessian(modes, sys_):
    root = np.sqrt(np.concatenate(([sys_.mass], modes.mass)))
    return hessian(modes, sys_) / np.outer(root, root), root


def eigh_normal_modes(modes, sys_, monkeypatch):
    """The oracle: a _NormalModes whose decomposition is the dense
    ``np.linalg.eigh`` of the mass-weighted Hessian, as one block."""
    weighted, _ = mass_weighted_hessian(modes, sys_)
    eigval, vecs = np.linalg.eigh(weighted)
    with monkeypatch.context() as patch:
        patch.setattr(mb, "_arrowhead_eigen", lambda *_: (eigval, lambda: iter(
            [(np.arange(eigval.size), vecs[0].copy(), vecs[1:].T.copy())])))
        return mb._NormalModes(modes, sys_)


def arrowhead_dense(w0, b, d):
    """(vals, vecs) of :func:`mb._arrowhead_eigen`, its blocks of eigenvectors
    gathered into the rows of vecs; each block is at most ``_ROOT_BLOCK``
    rows and each rank comes once."""
    vals, vectors = mb._arrowhead_eigen(w0, b, d)
    vecs, seen = np.empty((vals.size, vals.size)), []
    for ranks, u0, u in vectors():
        assert ranks.size <= mb._ROOT_BLOCK
        vecs[ranks, 0], vecs[ranks, 1:] = u0, u
        seen.append(ranks)
    np.testing.assert_array_equal(np.sort(np.concatenate(seen)), np.arange(vals.size))
    return vals, vecs


def pass_peak(n_modes, monkeypatch):
    """tracemalloc peak of one ensemble_stats pass at the CLI's lags and
    origins, 2,048 realizations, normal modes included, on two draw
    workers (each holds one (2N, 64) tile)."""
    monkeypatch.setattr(sde, "_WORKERS", 2)
    sys_, (_, modes) = SystemSpec(), make_bath(0.5, 3.0, n_modes)
    grid = mb.TrajectoryGrid(dt=0.03, n_steps=100)
    taus, origins = np.linspace(0.0, 5.0, 11), np.arange(0.0, 20.0001, 0.5)
    return traced_peak(lambda: mb.ensemble_stats(modes, sys_, grid, taus, 2048, seed=1,
                                                 origins=origins))


SECULAR_CASES = {
    # the criterion-6 bath
    "criterion6": (SystemSpec(), lambda: make_bath(0.5, 3.0, 1000)[1]),
    # the bound state (amplitude^2 0.97) sits above the highest mode, 0.80
    "bound_state": (SystemSpec(), lambda: make_bath(0.1, 0.8, 400)[1]),
    # a zero eigenvalue
    "free_particle": (SystemSpec(omega0=0.0), lambda: make_bath(0.5, 3.0, 300)[1]),
    "one_mode": (SystemSpec(), lambda: make_bath(0.5, 3.0, 1)[1]),
    # unsorted, one frequency three times, one zero coupling
    "hand_made": (SystemSpec(omega0=0.7), lambda: ModeSet(
        omega=[2.0, 0.5, 1.2, 0.5, 3.0, 0.5, 0.9], mass=[1.0, 2.0, 0.5, 1.5, 1.0, 0.8, 1.2],
        coupling=[0.3, 0.2, 0.0, -0.4, 0.1, 0.25, 0.35])),
    # one-pole secular problems, where LAPACK leaves no root in its DELTA:
    # the oscillator alone at its own w0, and a zero eigenvalue beside one coupled mode
    "uncoupled": (SystemSpec(omega0=1.3), lambda: ModeSet(
        omega=[1.0, 2.0], mass=[1.0, 1.0], coupling=[0.0, 0.0])),
    "free_one_mode": (SystemSpec(omega0=0.0), lambda: ModeSet(
        omega=[0.8, 1.5], mass=[1.0, 1.2], coupling=[0.3, 0.0])),
}


class TestSecularEquation:
    @pytest.mark.parametrize("case", SECULAR_CASES)
    def test_matches_eigh_oracle(self, case, monkeypatch):
        sys_, build = SECULAR_CASES[case]
        modes = build()
        fast, oracle = mb._NormalModes(modes, sys_), eigh_normal_modes(modes, sys_, monkeypatch)
        # W^2, since the square root turns a zero eigenvalue's rounding
        # (1e-16) into 1e-8
        np.testing.assert_allclose(fast.freq**2, oracle.freq**2, rtol=0, atol=1e-12)
        if sys_.omega0 > 0:
            np.testing.assert_allclose(fast.freq, oracle.freq, rtol=0, atol=1e-12)
        # the response does not depend on the eigenvectors' signs or on the
        # basis of a degenerate eigenspace.  Relative to its largest entry:
        # a free particle's x grows as t, and eigh's zero mode is 3e-15 off
        # the exact (1, c_j / m_j w_j^2) direction (the secular one 1e-16)
        times = np.array([0.0, 0.7, 13.3, 40.0])
        for got, want in zip(fast.response(times, 0.6), oracle.response(times, 0.6)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        # and so do the dumped x and v, whose normal-mode coordinates P z do
        grid, dumps = mb.TrajectoryGrid(dt=0.03, n_steps=300), []
        for normal_modes in (fast, oracle):
            monkeypatch.setattr(mb, "_NormalModes", lambda *_: normal_modes)
            dumps.append(mb.ensemble_stats(modes, sys_, grid, [], 3, seed=2, origins=[], x0=0.6,
                                           n_dump=3)[2][1:3])
        for got, want in zip(*dumps):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("case", SECULAR_CASES)
    def test_eigenvectors_orthonormal(self, case):
        sys_, build = SECULAR_CASES[case]
        weighted, _ = mass_weighted_hessian(build(), sys_)
        vals, vecs = arrowhead_dense(sys_.omega0, weighted[0, 1:], np.diag(weighted)[1:])
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vecs @ vecs.T - np.eye(vals.size))) < 1e-13
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(vecs @ weighted @ vecs.T - np.diag(vals))) < 1e-13 * scale

    def test_wide_scales_match_eigh(self):
        # poles over six decades, couplings over eight and w0 over six, with
        # alpha = w0^2 + sum b^2 / d: the positive-semidefinite arrowheads, the
        # only ones a Hessian can be
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = rng.random(50) * 10.0 ** rng.integers(-3, 4, 50)
            b = rng.standard_normal(50) * 10.0 ** rng.uniform(-6, 2, 50)
            w0 = abs(rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3)
            matrix = np.diag(np.concatenate(([w0**2 + np.sum(b**2 / d)], d)))
            matrix[0, 1:] = matrix[1:, 0] = b
            vals, vecs = arrowhead_dense(w0, b, d)
            scale = np.max(np.abs(vals))
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(matrix), rtol=0,
                                       atol=1e-14 * scale)
            assert np.max(np.abs(vecs @ vecs.T - np.eye(51))) < 1e-13
            assert np.max(np.abs(vecs @ matrix @ vecs.T - np.diag(vals))) < 1e-14 * scale

    @pytest.mark.parametrize("case", ("criterion6", "hand_made"))
    def test_response_does_not_depend_on_the_block(self, case, monkeypatch):
        # each block's coefficients take one product with its own eigenvectors
        # into one sum: a rank or slice mixed up between blocks shows here
        sys_, build = SECULAR_CASES[case]
        modes, times, got = build(), np.array([0.0, 0.7, 40.0]), []
        for block in (3, 64, modes.count + 1):
            monkeypatch.setattr(mb, "_ROOT_BLOCK", block)
            got.append(mb._NormalModes(modes, sys_).response(times, 0.6))
        for response in got[:-1]:
            for part, want in zip(response, got[-1]):
                np.testing.assert_allclose(part, want, rtol=0,
                                           atol=1e-14 * np.max(np.abs(want)))

    def test_root_temporaries_are_one_block(self):
        # the roots come one at a time on O(N) arrays, and the eigenvectors
        # wait for their (64, N) blocks: one (N + 1, N) array of all the
        # roots' pole differences would be 32 MB at N = 2000
        sys_, (_, modes) = SystemSpec(), make_bath(0.5, 3.0, 2000)
        b = -modes.coupling / np.sqrt(sys_.mass * modes.mass)
        assert traced_peak(lambda: mb._arrowhead_eigen(sys_.omega0, b, modes.omega**2)) < 24e6

    def test_pass_memory_linear_in_modes(self, monkeypatch):
        # O(N) normal modes and (2N, 64) draw tiles: four times the modes at
        # most 4.5 times the peak, where (N+1) x N rows would make it 16
        small, large = pass_peak(1000, monkeypatch), pass_peak(4000, monkeypatch)
        assert large <= 4.5 * small, (small, large)

    def test_unconverged_roots_raise(self, monkeypatch, capsys):
        # LAPACK reporting one root unconverged: the call raises, and the CLI
        # exits with the numeric-failure code
        solve = lapack.dlasd4
        monkeypatch.setattr(lapack, "dlasd4",
                            lambda k, *args: (*solve(k, *args)[:3], int(k == 7)))
        _, modes = make_bath(0.5, 3.0, 1000)
        with pytest.raises(ConvergenceError, match="1 of 1001 normal modes unconverged"):
            mb._NormalModes(modes, SystemSpec())
        assert cli.main(["microbath", "--modes", "50", "--realizations", "64"]) == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err


class TestEmptyEnsembles:
    # ensemble_stats is the one pass for both the noise statistics and the
    # final-time moments; each use is checked as it is called
    @pytest.mark.parametrize("kwargs", ({"n_real": 0}, {"n_real": 4, "chunk_size": 0}))
    def test_noise_stats_rejects(self, kwargs):
        _, modes = make_bath(n_modes=16)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=10)
        with pytest.raises(DomainError, match="n_real and chunk_size"):
            mb.ensemble_stats(modes, SystemSpec(), grid, [0.0, 0.3], origins=[0.0, 0.6],
                              seed=1, **kwargs)

    @pytest.mark.parametrize("kwargs", ({"n_real": 0}, {"n_real": 4, "chunk_size": 0}))
    def test_gle_moments_rejects(self, kwargs):
        _, modes = make_bath(n_modes=16)
        grid = mb.TrajectoryGrid(dt=0.03, n_steps=10)
        with pytest.raises(DomainError, match="n_real and chunk_size"):
            mb.ensemble_stats(modes, SystemSpec(), grid, [0.0], x0=1.0, seed=1, **kwargs)


def test_microbath_run_draws_each_block_stream_once(monkeypatch, capsys):
    # 4,200 realizations are 66 blocks in chunks of 32, 32 and 2 blocks, each
    # drawn in one call per worker group (two workers: halves of a chunk);
    # the noise statistics and the moments share each group's one draw, one
    # tile per stream with a row per value (x(T), v(T) and 51 noise times),
    # not per normal (2N = 100)
    draw, chunks, keys, sizes, tiles = mb._draw, sde._chunks, [], [], []

    def counting(streams, factor, out):
        keys.append([(s.bit_generator.seed_seq.entropy, *s.bit_generator.seed_seq.spawn_key)
                     for s in streams])
        tiles.append((len(out), factor.shape[1]))
        draw(streams, factor, out)

    def recording(*args):
        for streams, count in chunks(*args):
            sizes.append(len(streams))
            yield streams, count

    monkeypatch.setattr(sde, "_WORKERS", 2)
    monkeypatch.setattr(sde, "_chunks", recording)
    monkeypatch.setattr(mb, "_draw", counting)
    assert cli.main(["microbath", "--modes", "50", "--realizations", "4200", "--steps", "10",
                     "--dt", "0.03", "--seed", "3"]) == 0
    capsys.readouterr()
    assert sizes == [32, 32, 2]
    # the two groups of a chunk draw concurrently, each in stream order
    groups = sorted(keys)
    assert [len(group) for group in groups] == [16, 16, 16, 16, 1, 1]
    assert sum(groups, []) == [(3, 0x5DE, b) for b in range(66)]
    assert tiles == [(53, 53)] * 6


def test_overflowing_moment_raises():
    # x(T)^2 leaves the floats while every draw is finite: the draws alone
    # were checked, and this returned mean inf, se nan without raising
    _, modes = make_bath(n_modes=16)
    grid = mb.TrajectoryGrid(dt=0.03, n_steps=10)
    with np.errstate(over="ignore"), pytest.raises(UnstableIntegrationError, match="diverged"):
        mb.ensemble_stats(modes, SystemSpec(), grid, [], 16, seed=1, origins=[], x0=1e200)
