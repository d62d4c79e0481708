"""One ensemble engine for the 2D linear SDEs of the Markovian and RWA dynamics.

Both dynamics are linear systems

    dS = A S dt + dW,   cov(dW) = Q dt

whose transition over a step h is Gaussian with mean expm(A h) S and
covariance Int_0^h expm(A s) Q expm(A^T s) ds.  Both are computed once
from the Van Loan block-matrix exponential, making the per-step update
exact for any step size; the plain Euler-Maruyama scheme is kept as a
cross-check mode.

Engine contract: trajectories start at rest and come in blocks of 64;
block b draws time-major tiles of normals from its (seed, b) stream, so
trajectory i depends on (seed, i) alone, not on n_traj, chunking or tiling.
A chunk (chunk_size rounded up to whole blocks) steps in place in one
(tile steps + 1, chunk, dim) buffer, and observables sum in step order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .ensemble import MomentAccumulator
from .errors import DomainError, UnstableIntegrationError

__all__ = ["exact_discretization", "noise_factor", "trajectory_seeds", "stepper",
           "run_ensemble", "sample_paths"]

# trajectories per stream; steps per stream draw; steps per observable slab
_BLOCK, _BLOCK_STEPS, _SLAB_STEPS = 64, 1024, 64


def exact_discretization(drift, diffusion, dt):
    """(E, Q_dt) of the linear SDE with (n, n) drift A and noise covariance
    rate Q (symmetric positive semidefinite): the propagator expm(A dt) and
    the exact per-step noise covariance, symmetrized."""
    if not dt > 0:
        raise DomainError("dt must be positive")
    a = np.asarray(drift, dtype=float)
    q = np.asarray(diffusion, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise DomainError("drift and diffusion must be square and same size")
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = q
    block[n:, n:] = -a.T
    eb = expm(block * dt)
    prop = eb[:n, :n]
    q_dt = eb[:n, n:] @ prop.T
    q_dt = 0.5 * (q_dt + q_dt.T)
    return prop, q_dt


def noise_factor(cov):
    """Matrix L with L @ L.T = cov, robust to semidefinite covariances."""
    cov = np.asarray(cov, dtype=float)
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def trajectory_seeds(seed: int, indices):
    """Independent bit generators keyed by (seed, index), one per finite-bath realization."""
    return [np.random.default_rng(np.random.SeedSequence(entropy=(seed, int(i))))
            for i in indices]


def stepper(drift, diffusion, dt, n_steps, n_traj, method="exact"):
    """Checked propagator E and noise factor L: Van Loan for 'exact', or
    E = I + A dt and covariance Q dt for 'euler', which requires
    dt * omega0 <= 0.01 with omega0 = sqrt|det A| (omega0 of the Markov drift).
    """
    if method not in ("exact", "euler"):
        raise DomainError("method must be 'exact' or 'euler'")
    if not 0 < dt < math.inf or n_steps < 1 or n_traj < 1:
        raise DomainError("dt, n_steps and n_traj must be positive (dt finite)")
    if method == "exact":
        prop, q_dt = exact_discretization(drift, diffusion, dt)
        return prop, noise_factor(q_dt)
    a = np.asarray(drift, dtype=float)
    if dt * math.sqrt(abs(np.linalg.det(a))) > 0.01:
        raise DomainError("euler mode requires dt * omega0 <= 0.01, omega0 = sqrt|det A|")
    return np.eye(len(a)) + a * dt, noise_factor(np.asarray(diffusion, dtype=float) * dt)


def _streams(seed, blocks):
    """PCG64 generators keyed by (seed, block), a domain apart from trajectory_seeds."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5DE, b)))
            for b in blocks]


def _draw(streams, factor, out):
    """Fill ``out`` (steps, 64 per stream, dim) with kicks, one time-major tile per stream."""
    tile, factor_t = np.empty((len(out), _BLOCK, out.shape[2])), np.ascontiguousarray(factor.T)
    for k, rng in enumerate(streams):
        rng.standard_normal(out=tile)
        np.matmul(tile, factor_t, out=out[:, k * _BLOCK:(k + 1) * _BLOCK])


def _propagate(prop, states):
    """Turn the kicks in states[1:] into states, in step order from states[0]."""
    prop_t = np.ascontiguousarray(prop.T)
    for t in range(1, len(states)):
        states[t] += states[t - 1] @ prop_t


def _chunk_sums(prop, factor, n_steps, observables, burn_steps, streams):
    """Per-trajectory sums of the observables over the steps after
    ``burn_steps``, and the final states; the chunk's one buffer dies here."""
    buf = np.zeros((min(_BLOCK_STEPS, n_steps) + 1, _BLOCK * len(streams), len(prop)))
    sums = {name: np.zeros(buf.shape[1]) for name in observables}
    for start in range(0, n_steps, _BLOCK_STEPS):
        # states[r] is the state after start + r steps; row 0 ends the previous run
        states = buf[:min(_BLOCK_STEPS, n_steps - start) + 1]
        states[0] = buf[-1]
        _draw(streams, factor, states[1:])
        _propagate(prop, states)
        for a in range(max(1, burn_steps + 1 - start), len(states), _SLAB_STEPS):
            b = min(a + _SLAB_STEPS, len(states))
            prev, cur = (states[i:i + b - a].reshape(-1, len(prop)) for i in (a - 1, a))
            for name, f in observables.items():
                # a reduction seeded with the running sum adds in step order
                sums[name] = np.vstack([sums[name], f(prev, cur).reshape(b - a, -1)]).sum(0)
    return sums, states[-1].copy()


def run_ensemble(prop, factor, n_steps, n_traj, seed, observables, burn_steps,
                 chunk_size, bound):
    """One accumulator per name of the trajectories' time averages of
    ``observables[name](prev, state)`` on (rows, dim) slabs over the ``n_steps``
    steps after ``burn_steps``; raises :class:`UnstableIntegrationError` when a
    chunk ends non-finite or with |x| > ``bound``, padding trajectories aside."""
    accs = {name: MomentAccumulator() for name in observables}
    n_blocks, per_chunk = -(-n_traj // _BLOCK), -(-chunk_size // _BLOCK)
    for first in range(0, n_blocks, per_chunk):
        sums, state = _chunk_sums(prop, factor, burn_steps + n_steps, observables, burn_steps,
                                  _streams(seed, range(first, min(first + per_chunk, n_blocks))))
        state = state[:n_traj - _BLOCK * first]
        if not np.all(np.isfinite(state)) or np.max(np.abs(state[:, 0])) > bound:
            raise UnstableIntegrationError(
                "SDE trajectories diverged; reduce dt or use method='exact'")
        for name, acc in accs.items():
            acc.update_batch(sums[name][:len(state)] / n_steps)
    return accs


def sample_paths(prop, factor, n_steps, n_traj, seed):
    """(states, kicks) of the first ``n_traj`` trajectories, each of shape
    (n_steps + 1, n_traj, dim); kicks[k] drives states[k] -> states[k + 1]
    and the last kick is zero.  Whole blocks are drawn, then sliced.
    """
    kicks = np.zeros((n_steps + 1, _BLOCK * -(-n_traj // _BLOCK), len(prop)))
    _draw(_streams(seed, range(kicks.shape[1] // _BLOCK)), factor, kicks[:-1])
    states = np.roll(kicks, 1, axis=0)  # kicks[-1] is zero: the start at rest
    _propagate(prop, states)
    return states[:, :n_traj], kicks[:, :n_traj]
