"""Linear-SDE ensemble engine: block invariance, stream identity, chunking,
memory, divergence."""

import tracemalloc

import numpy as np
import pytest

from qlesim import ensemble, rwa, sde
from qlesim import markovian as mk
from qlesim.bath import SystemSpec
from qlesim.errors import UnstableIntegrationError


def _moments(res):
    return {name: (est.mean, est.se) for name, est in res.moments.items()}


def test_block_length_does_not_change_results(monkeypatch):
    # 30 burn-in + 40 steps span several 7-step blocks, with a ragged last one
    markov = mk.MarkovParams.from_system(SystemSpec(), 0.2)
    pair = rwa.RwaParams.from_system(SystemSpec(), 0.05)

    def run():
        return (
            _moments(mk.simulate_sde(markov, 0.5, 40, 9, seed=4, burn_in=15.0)),
            _moments(rwa.simulate_rwa(pair, 0.5, 40, 9, seed=4, burn_in=15.0)),
            [a.tobytes() for a in mk.sample_trajectories(markov, 0.5, 40, 3, seed=4)],
        )

    default = run()
    monkeypatch.setattr(sde, "_BLOCK_STEPS", 7)
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


def _step_average(series, burn_steps, n_steps):
    """Time average of rows burn_steps + 1 .. burn_steps + n_steps, added in step order."""
    total = np.zeros(series.shape[1])
    for row in series[burn_steps + 1:burn_steps + 1 + n_steps]:
        total += row
    return total / n_steps


def test_first_trajectories_do_not_depend_on_ensemble_or_chunk_size(monkeypatch):
    # 30 burn-in + 40 steps of dt = 0.5; trajectories 0..4 of every ensemble
    markov = mk.MarkovParams.from_system(SystemSpec(), 0.2)
    pair = rwa.RwaParams.from_system(SystemSpec(), 0.05)
    k, dt, burn, steps = 5, 0.5, 30, 40
    for simulate, params in ((mk.simulate_sde, markov), (rwa.simulate_rwa, pair)):
        def run(n_traj, chunk_size):
            return _per_trajectory(monkeypatch, lambda: simulate(
                params, dt, steps, n_traj, seed=4, burn_in=burn * dt, chunk_size=chunk_size))

        first = [values[:k] for values in run(k, 2048)]
        for n_traj in (k, 64, 65, 200):
            for chunk_size in (7, 64, 65, 2048):
                got = run(n_traj, chunk_size)
                assert all(len(values) == n_traj for values in got)
                assert [values[:k].tobytes() for values in got] == \
                    [values.tobytes() for values in first], (simulate.__name__, n_traj, chunk_size)

    # the dumped trajectories are those trajectories, state for state
    _, x, v, _ = mk.sample_trajectories(markov, dt, burn + steps, k, seed=4)
    x2, v2 = _per_trajectory(monkeypatch, lambda: mk.simulate_sde(
        markov, dt, steps, k, seed=4, burn_in=burn * dt))
    assert x2.tobytes() == _step_average(x ** 2, burn, steps).tobytes()
    assert v2.tobytes() == _step_average(v ** 2, burn, steps).tobytes()
    _, x, p, _, _ = rwa.sample_trajectories(pair, dt, burn + steps, k, seed=4)
    ehrenfest = np.vstack([np.zeros(k), ((x[1:] - x[:-1]) / dt - p[:-1] / pair.system.mass) ** 2])
    expected = [x ** 2, p ** 2, x * p, ehrenfest]
    got = _per_trajectory(monkeypatch, lambda: rwa.simulate_rwa(
        pair, dt, steps, k, seed=4, burn_in=burn * dt))
    for values, series in zip(got, expected):
        assert values.tobytes() == _step_average(series, burn, steps).tobytes()


def test_rwa_chunking_invariance():
    params = rwa.RwaParams.from_system(SystemSpec(), 0.05)
    a = rwa.simulate_rwa(params, dt=5.0, n_steps=50, n_traj=100, seed=3, chunk_size=7)
    b = rwa.simulate_rwa(params, dt=5.0, n_steps=50, n_traj=100, seed=3, chunk_size=100)
    for name in ("x2", "p2", "xp", "ehrenfest"):
        assert a[name].mean == pytest.approx(b[name].mean, rel=1e-12)


def test_noise_memory_bounded_by_block():
    # the whole-run draw held 32 x 20,100 x 2 doubles (about 10 MB) twice
    params = rwa.RwaParams.from_system(SystemSpec(), 0.1)
    tracemalloc.start()
    try:
        rwa.simulate_rwa(params, dt=1.0, n_steps=20_000, n_traj=32, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_chunk_memory_is_one_buffer():
    # the chunk's states live in one (tile steps + 1, chunk, 2) buffer; a
    # view of it kept alive across chunks would double the peak
    params = mk.MarkovParams.from_system(SystemSpec(), 0.1)
    buffer = (min(sde._BLOCK_STEPS, 1010) + 1) * 2048 * 2 * 8
    tracemalloc.start()
    try:
        mk.simulate_sde(params, dt=10.0, n_steps=1000, n_traj=4096, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * buffer, peak / buffer


def test_divergence_guard():
    with pytest.raises(UnstableIntegrationError, match="diverged"):
        sde.run_ensemble(2.0 * np.eye(2), np.eye(2), n_steps=50, n_traj=4, seed=0,
                         observables={"x2": lambda prev, s: s[:, 0] ** 2},
                         burn_steps=1, chunk_size=4, bound=1e6)
