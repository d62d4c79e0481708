"""Linear-SDE ensemble engine: closed-form step against scipy and Van Loan,
block invariance, stream identity, chunking, worker-count invariance, memory,
divergence, input checks, the stationary start and exact standard errors."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from qlesim import cli, ensemble, rwa, sde
from qlesim import markovian as mk
from qlesim import microbath as mb
from qlesim.bath import BathSpec, SystemSpec, discretize_bath
from qlesim.errors import DomainError, UnstableIntegrationError
from test_microbath import block_stream


def _moments(res):
    return {name: (est.mean, est.se) for name, est in res.items()}


def test_block_length_does_not_change_results(monkeypatch):
    # 70 steps span several 7-step slabs of draws, with a ragged last one
    markov = mk.MarkovParams(SystemSpec(), 0.2)
    pair = mk.MarkovParams(SystemSpec(), 0.05)

    def run():
        return (
            _moments(mk.simulate_sde(markov, 0.5, 70, 9, seed=4)),
            _moments(rwa.simulate_rwa(pair, 0.5, 70, 9, seed=4)),
            [a.tobytes() for a in mk.sample_trajectories(markov, 0.5, 40, 3, seed=4)],
        )

    default = run()
    monkeypatch.setattr(sde, "_SLAB_STEPS", 7)
    assert run() == default


def _per_trajectory(monkeypatch, run):
    """Per-trajectory time averages of each observable of one run, in
    trajectory order, as the engine hands them to the accumulators."""
    seen = {}
    update_batch = ensemble.MomentAccumulator.update_batch

    def spy(acc, values):
        seen.setdefault(id(acc), []).append(np.array(values))
        update_batch(acc, values)

    with monkeypatch.context() as patch:
        patch.setattr(ensemble.MomentAccumulator, "update_batch", spy)
        run()
    return [np.concatenate(batches) for batches in seen.values()]


def _step_average(series, n_steps):
    """Time average of rows 1 .. n_steps, added in step order."""
    total = np.zeros(series.shape[1])
    for row in series[1:n_steps + 1]:
        total += row
    return total / n_steps


def test_first_trajectories_do_not_depend_on_ensemble_or_chunk_size(monkeypatch):
    # 70 steps of dt = 0.5; trajectories 0..4 of every ensemble
    markov = mk.MarkovParams(SystemSpec(), 0.2)
    pair = mk.MarkovParams(SystemSpec(), 0.05)
    k, dt, steps = 5, 0.5, 70
    for simulate, params in ((mk.simulate_sde, markov), (rwa.simulate_rwa, pair)):
        def run(n_traj, chunk_size):
            return _per_trajectory(monkeypatch, lambda: simulate(
                params, dt, steps, n_traj, seed=4, chunk_size=chunk_size))

        first = [values[:k] for values in run(k, 2048)]
        for n_traj in (k, 64, 65, 200):
            for chunk_size in (7, 64, 65, 2048):
                got = run(n_traj, chunk_size)
                assert all(len(values) == n_traj for values in got)
                assert [values[:k].tobytes() for values in got] == \
                    [values.tobytes() for values in first], (simulate.__name__, n_traj, chunk_size)

    # the dumped trajectories are those trajectories, state for state
    _, x, v, _ = mk.sample_trajectories(markov, dt, steps, k, seed=4)
    x2, v2 = _per_trajectory(monkeypatch, lambda: mk.simulate_sde(markov, dt, steps, k, seed=4))
    assert x2.tobytes() == _step_average(x ** 2, steps).tobytes()
    assert v2.tobytes() == _step_average(v ** 2, steps).tobytes()
    _, x, p, _, _ = rwa.sample_trajectories(pair, dt, steps, k, seed=4)
    ehrenfest = np.vstack([np.zeros(k), ((x[1:] - x[:-1]) / dt - p[:-1] / pair.system.mass) ** 2])
    expected = [x ** 2, p ** 2, x * p, ehrenfest]
    got = _per_trajectory(monkeypatch, lambda: rwa.simulate_rwa(pair, dt, steps, k, seed=4))
    for values, series in zip(got, expected):
        assert values.tobytes() == _step_average(series, steps).tobytes()


def test_worker_count_does_not_change_results(monkeypatch):
    # An SDE ensemble steps groups of at least 8 blocks per worker: 1,600
    # trajectories are 25 blocks, a ragged 9-8-8 split over 3 or 8 workers,
    # and chunk_size 1000 makes chunks of 16 (two groups) and 9 blocks (one);
    # 300 trajectories (5 blocks, with chunk_size 200 a one-block chunk) step
    # in one group.  The finite bath draws 300 realizations of 2 x 40 mode
    # normals in 5 blocks, a ragged 2-2-1 split over 3 workers and fewer
    # blocks than 8 workers, in one chunk or in chunks of 128
    markov = mk.MarkovParams(SystemSpec(), 0.2)
    pair = mk.MarkovParams(SystemSpec(), 0.05)
    drift, diffusion = mk._linear_system(markov)
    modes = discretize_bath(BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0), 40)
    grid = mb.TrajectoryGrid(dt=0.03, n_steps=20)
    calls = (
        lambda: _moments(mk.simulate_sde(markov, 0.5, 70, 300, seed=4)),
        lambda: _moments(rwa.simulate_rwa(pair, 0.5, 70, 300, seed=4, chunk_size=200)),
        lambda: [v.tobytes() for v in _per_trajectory(monkeypatch, lambda: mk.simulate_sde(
            markov, 0.5, 70, 300, seed=4, chunk_size=200))],
        lambda: [v.tobytes() for v in _per_trajectory(monkeypatch, lambda: rwa.simulate_rwa(
            pair, 0.5, 70, 300, seed=4))],
        lambda: [v.tobytes() for v in _per_trajectory(monkeypatch, lambda: mk.simulate_sde(
            markov, 0.5, 70, 1600, seed=4))],
        lambda: [v.tobytes() for v in _per_trajectory(monkeypatch, lambda: rwa.simulate_rwa(
            pair, 0.5, 70, 1600, seed=4, chunk_size=1000))],
        lambda: [a.tobytes() for a in sde.sample_paths(drift, diffusion, 0.5, 70, 300, seed=4)],
        lambda: [a.tobytes() for a in sde.sample_paths(drift, diffusion, 0.5, 2, 300, seed=4)],
        lambda: _moments(mb.ensemble_stats(modes, SystemSpec(), grid, [], 300, seed=4,
                                           origins=[], chunk_size=128)[1]),
        lambda: mb.ensemble_stats(modes, SystemSpec(), grid, [0.0, 0.3], 300,
                                  seed=4)[0]["autocorr"],
        lambda: [a.tobytes() for a in mb.ensemble_stats(modes, SystemSpec(), grid, [], 300,
                                                        seed=4, origins=[], n_dump=300)[2]],
    )

    def run(workers):
        monkeypatch.setattr(sde, "_WORKERS", workers)
        results = []
        for call in calls:
            threads = threading.active_count()
            results.append(call())
            assert threading.active_count() == threads, workers
        return results

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose any shared scratch
    try:
        for workers in (2, 3, 8):
            assert run(workers) == serial, workers
    finally:
        sys.setswitchinterval(interval)


def test_rwa_chunking_invariance():
    params = mk.MarkovParams(SystemSpec(), 0.05)
    a = rwa.simulate_rwa(params, dt=5.0, n_steps=50, n_traj=100, seed=3, chunk_size=7)
    b = rwa.simulate_rwa(params, dt=5.0, n_steps=50, n_traj=100, seed=3, chunk_size=100)
    for name in ("x2", "p2", "xp", "ehrenfest"):
        assert a[name].mean == pytest.approx(b[name].mean, rel=1e-12)


def test_noise_memory_bounded_by_block():
    # the whole-run draw held 32 x 20,100 x 2 doubles (about 10 MB) twice
    params = mk.MarkovParams(SystemSpec(), 0.1)
    tracemalloc.start()
    try:
        rwa.simulate_rwa(params, dt=1.0, n_steps=20_000, n_traj=32, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _chunk_peaks():
    """tracemalloc peaks of 4,096 trajectories (two chunks) at 1,000 and 4,000 steps."""
    params = mk.MarkovParams(SystemSpec(), 0.1)
    peaks = []
    for n_steps in (1000, 4000):
        tracemalloc.start()
        try:
            mk.simulate_sde(params, dt=10.0, n_steps=n_steps, n_traj=4096, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_chunk_memory_is_one_buffer():
    # a chunk steps in one (64 + 1, 2048, 2) slab buffer, 2.1 MB; the
    # 1024-step tile peaked at 35 MB, and a whole-run draw grows with the
    # steps (131 MB per chunk at 4,000)
    peaks = _chunk_peaks()
    assert max(peaks) < 8e6, peaks


@pytest.mark.parametrize("workers", (1, 8))
def test_chunk_memory_one_buffer_at_worker_count(monkeypatch, workers):
    # one scratch tile per draw worker, however many workers there are
    monkeypatch.setattr(sde, "_WORKERS", workers)
    peaks = _chunk_peaks()
    assert max(peaks) < 8e6, peaks


def test_slab_loop_allocates_no_slab_array(monkeypatch):
    # one 2,048-member chunk on one worker holds the (64 + 1, 2048, 2) state
    # buffer, 2.13 MB, and the (64 + 1, 2048) reduction block, 1.06 MB: 3.33 MB
    # peak.  Each slab's values arrays and their vstack copy peaked at 4.31 MB.
    # A small run first, so that one-time allocations are not counted
    monkeypatch.setattr(sde, "_WORKERS", 1)
    params = mk.MarkovParams(SystemSpec(), 0.1)
    mk.simulate_sde(params, dt=10.0, n_steps=2, n_traj=64, seed=1)
    tracemalloc.start()
    try:
        mk.simulate_sde(params, dt=10.0, n_steps=1000, n_traj=2048, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.8e6, peak


def test_divergence_guard():
    # the exact step cannot diverge, but noise past the floats makes the
    # states non-finite: Sigma[1, 1] = 1e308 / 0.2 overflows
    drift = np.array([[0.0, 1.0], [-1.0, -0.1]])
    with np.errstate(all="ignore"), pytest.raises(UnstableIntegrationError, match="diverged"):
        sde.run_ensemble(drift, np.diag([0.0, 1e308]), 1.0, n_steps=10, n_traj=4, seed=0,
                         observables={"x2": lambda prev, s, out: np.square(s[:, 0], out=out)},
                         chunk_size=4)


def test_run_ensemble_rejects_stray_keyword():
    # the removed burn_in is not taken silently
    with pytest.raises(TypeError, match="burn_in"):
        sde.run_ensemble(np.array([[0.0, 1.0], [-1.0, -0.1]]), np.diag([0.0, 0.2]), 0.5,
                         n_steps=10, n_traj=4, seed=0,
                         observables={"x2": lambda prev, s, out: np.square(s[:, 0], out=out)},
                         chunk_size=4, burn_in=1.0)


@pytest.mark.parametrize("chunk_size", (0, -5))
def test_nonpositive_chunk_size_raises(chunk_size):
    # was a bare "range() arg 3 must not be zero" at 0
    params = mk.MarkovParams(SystemSpec(), 0.1)
    with pytest.raises(DomainError, match="chunk_size"):
        mk.simulate_sde(params, dt=0.5, n_steps=10, n_traj=4, seed=1, chunk_size=chunk_size)


def test_negative_seed_raises():
    # was numpy's "expected non-negative integer"
    markov = mk.MarkovParams(SystemSpec(), 0.1)
    pair = mk.MarkovParams(SystemSpec(), 0.1)
    modes = discretize_bath(BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0), 16)
    grid = mb.TrajectoryGrid(dt=0.03, n_steps=10)
    for call in (lambda: mk.simulate_sde(markov, 0.5, 10, 4, seed=-1),
                 lambda: rwa.simulate_rwa(pair, 0.5, 10, 4, seed=-1),
                 lambda: mk.sample_trajectories(markov, 0.5, 10, 4, seed=-1),
                 lambda: mb.ensemble_stats(modes, SystemSpec(), grid, [0.0], 4, seed=-1)):
        with pytest.raises(DomainError, match="seed"):
            call()


def test_block_streams_are_sfc64_keyed_by_seed_and_block():
    # blocks 0 and 65 of seed 3 (one chunk of 66 blocks): a change of bit
    # generator or of stream key fails here, not only in the golden files
    (streams, count), = sde._chunks(3, 66 * 64, 66 * 64)
    assert len(streams) == 66 and count == 66 * 64
    for block in (0, 65):
        bits = streams[block].bit_generator
        assert type(bits) is np.random.SFC64
        assert (bits.seed_seq.entropy, bits.seed_seq.spawn_key) == (3, (0x5DE, block))
        tile = streams[block].standard_normal((64, 64, 2))
        assert tile.tobytes() == block_stream(3, block).standard_normal((64, 64, 2)).tobytes()


def _van_loan(drift, diffusion, dt):
    """(E, Q_dt) from the Van Loan block exponential (C. F. Van Loan, IEEE TAC
    23, 395 (1978)); its e^{-A^T dt} block loses Q_dt once fast * dt >~ 20."""
    n = len(drift)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = drift, diffusion, -drift.T
    eb = expm(block * dt)
    q_dt = eb[:n, n:] @ eb[:n, :n].T
    return eb[:n, :n], 0.5 * (q_dt + q_dt.T)


ORACLE_DTS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)


def _oracle_drifts():
    """(w0, gamma, kind, A, Q) over the weak, critical and overdamped grid."""
    for w0 in (0.5, 1.0, 3.0):
        crit = 2.0 * w0
        for gamma in (1e-4, 1e-2, 0.1, 0.5, 1.0, crit, crit * (1 + 1e-9),
                      crit * (1 - 1e-9), 5.0, 20.0):
            markov = mk.MarkovParams(SystemSpec(omega0=w0), gamma)
            yield w0, gamma, "markov", *mk._linear_system(markov)
            pair = mk.MarkovParams(SystemSpec(omega0=w0), gamma)
            yield w0, gamma, "rwa", rwa.drift_matrix(pair), rwa._diffusion_matrix(pair)


def test_closed_forms_match_scipy_and_van_loan():
    for w0, gamma, kind, drift, diffusion in _oracle_drifts():
        cov = sde.stationary_covariance(drift, diffusion)
        ref = solve_continuous_lyapunov(drift, -diffusion)
        assert np.max(np.abs(cov - ref)) <= 1e-12 * np.max(np.abs(ref)), (w0, gamma, kind)
        if kind == "markov":
            x2, v2 = mk.stationary_moments_analytic(
                mk.MarkovParams(SystemSpec(omega0=w0), gamma))
            np.testing.assert_allclose(cov, np.diag([x2, v2]), rtol=1e-14, atol=0.0)
        fast = np.max(np.abs(np.linalg.eigvals(drift).real))
        for dt in ORACLE_DTS:
            prop, q_dt = sde.exact_discretization(drift, diffusion, dt)
            ref = expm(drift * dt)
            assert np.max(np.abs(prop - ref)) <= 1e-10 * np.max(np.abs(ref)), \
                (w0, gamma, kind, dt)
            if fast * dt <= 5.0:
                _, q_ref = _van_loan(drift, diffusion, dt)
                assert np.max(np.abs(q_dt - q_ref)) <= 1e-12 * np.max(np.abs(cov)), \
                    (w0, gamma, kind, dt)


def test_kicks_convolved_with_propagator_rebuild_paths():
    # states[n] = e^{A n dt} states[0] + sum_k e^{A (n - 1 - k) dt} kicks[k], with
    # each power of the step taken from the closed form at j dt
    markov = mk.MarkovParams(SystemSpec(), 0.2)
    pair = mk.MarkovParams(SystemSpec(), 0.05)
    dt, n = 0.05, 400
    for drift, diffusion in (mk._linear_system(markov),
                             (rwa.drift_matrix(pair), rwa._diffusion_matrix(pair))):
        states, kicks = sde.sample_paths(drift, diffusion, dt, n, 2, seed=9)
        tr, det = np.trace(drift), np.linalg.det(drift)
        powers = np.array([c0 * np.eye(2) + c1 * (drift - 0.5 * tr * np.eye(2)) for c0, c1 in
                           (sde.propagator_coefficients(tr, det, j * dt) for j in range(n + 1))])
        rebuilt = np.einsum("nij,rj->nri", powers, states[0])
        for k in range(n):
            rebuilt[k + 1:] += np.einsum("nij,rj->nri", powers[:n - k], kicks[k])
        assert np.max(np.abs(rebuilt - states)) < 1e-10 * np.max(np.abs(states))


def test_noise_factor_continuous_at_isotropic_covariance():
    # the RWA Q_dt is sigma^2 I; its eigh factor was a LAPACK tie-break, which a
    # 1e-15 off-diagonal turned by 45 degrees (max |dL| = 0.76 at this step)
    pair = mk.MarkovParams(SystemSpec(), 0.1)
    _, q_dt = sde.exact_discretization(rwa.drift_matrix(pair), rwa._diffusion_matrix(pair), 1.0)
    base = np.eye(2) * q_dt[0, 0]
    factor = sde.noise_factor(base)
    np.testing.assert_allclose(factor @ factor.T, base, rtol=1e-15)
    for off in (1e-15, -1e-15):
        nudged = sde.noise_factor(base + off * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.max(np.abs(nudged - factor)) < 1e-12, off


def test_exact_step_is_exact_at_critical_damping():
    # the double root -1 of A = [[0, 1], [-1, -2]]: expm(A t) = e^{-t} (I + t (A + I))
    drift = np.array([[0.0, 1.0], [-1.0, -2.0]])
    prop, _ = sde.exact_discretization(drift, np.diag([0.0, 1.0]), 0.7)
    np.testing.assert_allclose(prop, np.exp(-0.7) * (np.eye(2) + 0.7 * (drift + np.eye(2))),
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("drift", (np.eye(3), np.zeros((2, 2)),
                                   np.array([[0.0, 1.0], [1.0, -1.0]]),
                                   np.array([[0.0, 1.0], [-1.0, 0.0]])))
def test_unstable_or_non_2x2_drift_raises(drift):
    diffusion = np.eye(len(drift))
    with pytest.raises(DomainError):
        sde.stationary_covariance(drift, diffusion)
    with pytest.raises(DomainError):
        sde.exact_discretization(drift, diffusion, 1.0)


def test_exact_step_at_long_steps():
    # fast * dt >= 25: the Van Loan step gave x2 = 370 (sde) and all-zero
    # moments with a negative Ehrenfest reference (rwa)
    markov = mk.MarkovParams(SystemSpec(), 5.0)
    res = mk.simulate_sde(markov, dt=5.0, n_steps=100, n_traj=500, seed=3)
    for name, ref in zip(("x2", "v2"), mk.stationary_moments_analytic(markov)):
        assert abs(res[name].mean - ref) < 5.0 * res[name].se, name
    pair = mk.MarkovParams(SystemSpec(), 3.0)
    with pytest.warns(UserWarning, match="dubious"):
        res = rwa.simulate_rwa(pair, dt=8.0, n_steps=100, n_traj=500, seed=3)
    for name, ref in zip(("x2", "p2"), rwa.rwa_stationary_analytic(pair)):
        assert abs(res[name].mean - ref) < 5.0 * res[name].se, name
    exact = rwa.ehrenfest_residual_exact(pair, 8.0)
    assert abs(res["ehrenfest"].mean - exact) < 5.0 * res["ehrenfest"].se


def test_ehrenfest_exact_at_long_step_against_scipy():
    pair = mk.MarkovParams(SystemSpec(), 3.0)
    drift, diffusion, dt = rwa.drift_matrix(pair), rwa._diffusion_matrix(pair), 8.0
    prop, cov = expm(drift * dt), solve_continuous_lyapunov(drift, -diffusion)
    q_dt = cov - prop @ cov @ prop.T
    c = (prop - np.eye(2))[0] / dt - np.array([0.0, 1.0 / pair.system.mass])
    got = rwa.ehrenfest_residual_exact(pair, dt)
    assert got > 0.0
    assert got == pytest.approx(c @ cov @ c + q_dt[0, 0] / dt**2, rel=1e-12)


def _drifts():
    """(name, A, Q) at the Markov and RWA drifts of the stream tests."""
    markov = mk.MarkovParams(SystemSpec(), 0.2)
    pair = mk.MarkovParams(SystemSpec(), 0.05)
    yield "markov", *mk._linear_system(markov)
    yield "rwa", rwa.drift_matrix(pair), rwa._diffusion_matrix(pair)


def test_start_is_stationary():
    # each member starts from N(0, Sigma), so the sample second moments of
    # 6,400 members match Sigma at row 0 and after n steps; by Isserlis the
    # mean of s_i s_j over n members has variance (S_ii S_jj + S_ij^2) / n.
    # (a start at rest is 56.6 sd low at row 0, and the slow RWA 8.3 sd low at row 40)
    n, steps = 6400, 40
    for name, drift, diffusion in _drifts():
        cov = sde.stationary_covariance(drift, diffusion)
        sd = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        states, _ = sde.sample_paths(drift, diffusion, 0.5, steps, n, seed=5)
        for row in (0, steps):
            z = (states[row].T @ states[row] / n - cov) / sd
            assert np.all(np.abs(z) < 4.0), (name, row, z)


def _exact_row(drift, diffusion, dt, n_steps, form):
    """(mean, variance, kurtosis) of one trajectory's row
    (1/n) sum_k w_k^T B w_k, w_k = (S_{k-1}, S_k), on the stationary chain.

    The row is a quadratic form z^T M z in the joint Gaussian z = (S_0 .. S_n),
    whose blocks are cov(S_{j+l}, S_j) = E^l Sigma, so its cumulants are
    k_r = 2^{r-1} (r-1)! tr((M C)^r) and its kurtosis is 3 + k_4 / k_2^2.
    E and Sigma come from scipy's expm and Lyapunov solver."""
    prop, cov = expm(drift * dt), solve_continuous_lyapunov(drift, -diffusion)
    lagged = [cov]
    for _ in range(n_steps):
        lagged.append(prop @ lagged[-1])
    i, j = np.indices((n_steps + 1, n_steps + 1))
    blocks = np.array(lagged)[np.abs(i - j)]
    blocks = np.where((i < j)[..., None, None], blocks.swapaxes(-1, -2), blocks)
    dim = 2 * (n_steps + 1)
    joint = blocks.transpose(0, 2, 1, 3).reshape(dim, dim)
    weight = np.zeros((dim, dim))
    for k in range(n_steps):
        weight[2 * k:2 * k + 4, 2 * k:2 * k + 4] += form / n_steps
    mc = weight @ joint
    mc2 = mc @ mc
    k2 = 2.0 * np.trace(mc2)
    return np.trace(mc), k2, 3.0 + 48.0 * np.trace(mc2 @ mc2) / k2 ** 2


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_printed_std_error_is_exact(seed):
    # the printed sde/rwa rows at the CLI's gamma and dt: each mean lies within
    # 4 exact standard errors, and each printed std_error within 4 relative
    # spreads sqrt((kurtosis - 1) / n_traj) / 2 of the exact one (the sample
    # variance of n_traj rows has relative sd sqrt((kurtosis - 1) / n_traj))
    gamma, n_steps, n_traj = 0.1, 200, 4000
    dt, system = 1.0 / gamma, SystemSpec()
    markov = mk.MarkovParams(system, gamma)
    pair = mk.MarkovParams(system, gamma)
    x2, p2, xp = np.zeros((3, 4, 4))
    x2[2, 2] = p2[3, 3] = 1.0
    xp[2, 3] = xp[3, 2] = 0.5
    residual = np.array([-1.0 / dt, -1.0 / system.mass, 1.0 / dt, 0.0])
    cases = (
        (mk._linear_system(markov), cli._sde_rows(markov, dt, n_steps, n_traj, seed),
         {"x2": x2, "v2": p2}),
        ((rwa.drift_matrix(pair), rwa._diffusion_matrix(pair)),
         cli._rwa_rows(pair, dt, n_steps, n_traj, seed),
         {"x2": x2, "p2": p2, "xp": xp, "ehrenfest_residual": np.outer(residual, residual)}),
    )
    for (drift, diffusion), rows, forms in cases:
        for name, mean, se, n, reference in rows:
            if name not in forms:
                continue
            exact, var, kurtosis = _exact_row(drift, diffusion, dt, n_steps, forms[name])
            exact_se, spread = np.sqrt(var / n), np.sqrt((kurtosis - 1.0) / n) / 2.0
            assert reference == pytest.approx(exact, rel=1e-9, abs=1e-12), name
            assert abs(mean - exact) < 4.0 * exact_se, (name, mean, exact, exact_se)
            assert abs(se / exact_se - 1.0) < 4.0 * spread, (name, se, exact_se, spread)
