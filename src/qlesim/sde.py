"""One ensemble engine for the 2D linear SDEs of the Markovian and RWA dynamics.

Both dynamics are linear systems

    dS = A S dt + dW,   cov(dW) = Q dt

whose transition over a step h is Gaussian with mean expm(A h) S and
covariance Int_0^h expm(A s) Q expm(A^T s) ds.  Both are computed once
from the Van Loan block-matrix exponential, making the per-step update
exact for any step size; the plain Euler-Maruyama scheme is kept as a
cross-check mode.

Engine contract: each trajectory starts at rest and draws its normals from
its own (seed, index) stream in blocks of a fixed number of steps, so
results do not depend on chunking or blocking, and the noise held at once
is chunk_size x block x 2 doubles whatever the number of steps.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm

from .ensemble import MomentAccumulator
from .errors import DomainError, UnstableIntegrationError

__all__ = ["exact_discretization", "noise_factor", "trajectory_seeds", "stepper",
           "run_ensemble", "sample_paths"]

# steps of normals drawn per trajectory at a time
_BLOCK_STEPS = 1024


def exact_discretization(drift, diffusion, dt):
    """One-step propagator and noise covariance of a linear SDE.

    Parameters
    ----------
    drift : (n, n) array
        Drift matrix A.
    diffusion : (n, n) array
        Noise covariance rate Q (symmetric positive semidefinite).
    dt : float
        Step size.

    Returns
    -------
    (E, Q_dt) : propagator expm(A dt) and the exact per-step noise
        covariance, symmetrized.
    """
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
    """Independent per-trajectory bit generators keyed by (seed, index).

    Streams depend only on the pair, so chunked, parallel and serial
    executions consume identical randomness per trajectory.
    """
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


def _steps(prop, factor, n_steps, seed, indices):
    """Yield (previous state, state, kick) per step of the keyed trajectories."""
    rngs = trajectory_seeds(seed, indices)
    state = np.zeros((len(rngs), len(prop)))
    for start in range(0, n_steps, _BLOCK_STEPS):
        # trajectory-major, as one whole-run draw per stream would be
        noise = np.empty((len(rngs), min(_BLOCK_STEPS, n_steps - start), len(prop)))
        for rng, block in zip(rngs, noise):
            rng.standard_normal(out=block)
        for k in range(noise.shape[1]):
            kick = noise[:, k, :] @ factor.T
            prev, state = state, state @ prop.T + kick
            yield prev, state, kick


def run_ensemble(prop, factor, n_steps, n_traj, seed, observables, burn_steps,
                 chunk_size, bound):
    """One accumulator per name of the trajectories' time averages of
    ``observables[name](prev, state)`` over the ``n_steps`` steps after
    ``burn_steps``; raises :class:`UnstableIntegrationError` when a chunk
    ends non-finite or with |x| > ``bound``.
    """
    accs = {name: MomentAccumulator() for name in observables}
    for start in range(0, n_traj, chunk_size):
        indices = range(start, min(start + chunk_size, n_traj))
        sums = {name: np.zeros(len(indices)) for name in observables}
        steps = _steps(prop, factor, burn_steps + n_steps, seed, indices)
        for prev, state, _ in itertools.islice(steps, burn_steps, None):
            for name, f in observables.items():
                sums[name] += f(prev, state)
        if not np.all(np.isfinite(state)) or np.max(np.abs(state[:, 0])) > bound:
            raise UnstableIntegrationError(
                "SDE trajectories diverged; reduce dt or use method='exact'")
        for name, acc in accs.items():
            acc.update_batch(sums[name] / n_steps)
    return accs


def sample_paths(prop, factor, n_steps, n_traj, seed):
    """(states, kicks) of the first ``n_traj`` trajectories, each of shape
    (n_steps + 1, n_traj, dim); kicks[k] drives states[k] -> states[k + 1]
    and the last kick is zero.
    """
    states = np.zeros((n_steps + 1, n_traj, len(prop)))
    kicks = np.zeros_like(states)
    for k, (_, state, kick) in enumerate(_steps(prop, factor, n_steps, seed, range(n_traj))):
        states[k + 1] = state
        kicks[k] = kick
    return states, kicks
