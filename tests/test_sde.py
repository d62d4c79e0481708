"""Linear-SDE ensemble engine: block invariance, chunking, memory, divergence."""

import tracemalloc

import numpy as np
import pytest

from qlesim import markovian as mk
from qlesim import rwa, sde
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


def test_divergence_guard():
    with pytest.raises(UnstableIntegrationError, match="diverged"):
        sde.run_ensemble(2.0 * np.eye(2), np.eye(2), n_steps=50, n_traj=4, seed=0,
                         observables={"x2": lambda prev, s: s[:, 0] ** 2},
                         burn_steps=1, chunk_size=4, bound=1e6)
