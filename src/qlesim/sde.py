"""One ensemble engine for the 2D linear SDEs of the Markovian and RWA dynamics.

Both dynamics are stable 2x2 linear systems

    dS = A S dt + dW,   cov(dW) = Q dt,   tr A < 0 < det A,

whose transition over a step h is Gaussian with mean e^{A h} S and
covariance Sigma - e^{A h} Sigma e^{A h}^T, where Sigma solves the
Lyapunov equation A Sigma + Sigma A^T + Q = 0.  Both propagator and
Sigma have 2x2 closed forms, so the per-step update is exact for any step
size and never overflows; the plain Euler-Maruyama scheme is kept as a
cross-check mode.

Engine contract, shared with the finite bath of :mod:`.microbath`: members
come in blocks of 64 and chunks of whole blocks; block b fills row-major
tiles of normals from its (seed, b) stream and member i takes column i % 64
of block i // 64, so it depends on (seed, i) alone, not on the ensemble size,
chunking or tiling.  Block streams fill on a thread pool that lives for one
draw, one contiguous group of streams per worker (up to the usable CPUs);
since each stream writes only its own 64 columns, results do not depend on
the worker count.  SDE trajectories start from N(0, Sigma), drawn first; a
chunk steps in one (tile steps + 1, chunk, dim) buffer; observables sum in
step order.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .ensemble import EnsembleResult, MomentAccumulator
from .errors import DomainError, UnstableIntegrationError

__all__ = ["stationary_covariance", "exact_discretization", "noise_factor",
           "stepper", "run_ensemble", "sample_paths"]

# trajectories per stream; steps per stream draw; steps per observable slab
_BLOCK, _BLOCK_STEPS, _SLAB_STEPS = 64, 1024, 64
# threads for the block draws: the usable CPUs
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _stable_2x2(drift, diffusion):
    """(A, Q, tr A, det A); raises DomainError unless A and Q are 2x2 and tr A < 0 < det A."""
    a, q = np.asarray(drift, dtype=float), np.asarray(diffusion, dtype=float)
    if a.shape != (2, 2) or q.shape != (2, 2):
        raise DomainError("drift and diffusion must be 2x2")
    tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if not tr < 0 < det:
        raise DomainError("drift must be stable: tr A < 0 < det A")
    return a, q, tr, det


def stationary_covariance(drift, diffusion):
    """Sigma solving A Sigma + Sigma A^T + Q = 0 for a stable 2x2 drift A:

        Sigma = (det A Q + B Q B^T) / (-2 tr A det A),   B = A - tr A I.
    """
    a, q, tr, det = _stable_2x2(drift, diffusion)
    b = a - tr * np.eye(2)
    return (det * q + b @ q @ b.T) / (-2.0 * tr * det)


def exact_discretization(drift, diffusion, dt):
    """(E, Q_dt) of the stable 2x2 linear SDE with drift A and noise
    covariance rate Q: the propagator E = e^{A dt} and the exact per-step
    noise covariance Q_dt = Sigma - E Sigma E^T (see :func:`stationary_covariance`).

    With s = tr A/2, r = sqrt(s^2 - det A), the slow root det A/(s - r)
    (free of cancellation) and u = r dt,

        E = e^{slow dt} / (1 + tanh u) * (I + dt tanh(u)/u (A - s I)),

    which is e^{s dt} [cosh u I + sinh(u)/r (A - s I)] with |1 + tanh u| >= 1:
    exact at critical damping (u = 0) and free of overflow.  Q_dt carries an
    absolute error of order eps * |Sigma|, so at steps far below the
    relaxation time its relative error grows as |Sigma| / |Q dt|.
    """
    if not dt > 0:
        raise DomainError("dt must be positive")
    a, _, tr, det = _stable_2x2(drift, diffusion)
    cov, s = stationary_covariance(a, diffusion), 0.5 * tr
    r = cmath.sqrt(s * s - det)
    u = r * dt
    t = cmath.tanh(u)
    grow = cmath.exp(det / (s - r) * dt) / (1.0 + t)
    c0, c1 = grow.real, (grow * dt * (t / u if u else 1.0)).real
    prop = c0 * np.eye(2) + c1 * (a - s * np.eye(2))
    q_dt = cov - prop @ cov @ prop.T
    return prop, 0.5 * (q_dt + q_dt.T)


def noise_factor(cov):
    """Lower Cholesky factor L, L @ L.T = cov, of a 2x2 covariance; continuous
    in cov, with a zero first column where cov[0, 0] <= 0 (Euler's diag(0, q dt))."""
    (a, b), (_, c) = np.asarray(cov, dtype=float)
    if not a > 0:
        return np.array([[0.0, 0.0], [0.0, math.sqrt(max(c, 0.0))]])
    l00 = math.sqrt(a)
    return np.array([[l00, 0.0], [b / l00, math.sqrt(max(c - (b / l00) ** 2, 0.0))]])


def stepper(drift, diffusion, dt, n_steps, n_traj, method="exact"):
    """Checked propagator E, noise factor L of one step and start factor
    noise_factor(Sigma): the closed-form :func:`exact_discretization` for
    'exact', or E = I + A dt and covariance Q dt for 'euler' (started from
    the same Sigma), which requires dt * omega0 <= 0.01 with
    omega0 = sqrt|det A| (omega0 of the Markov drift).
    """
    if method not in ("exact", "euler"):
        raise DomainError("method must be 'exact' or 'euler'")
    if not 0 < dt < math.inf or n_steps < 1 or n_traj < 1:
        raise DomainError("dt, n_steps and n_traj must be positive (dt finite)")
    start = noise_factor(stationary_covariance(drift, diffusion))
    if method == "exact":
        prop, q_dt = exact_discretization(drift, diffusion, dt)
        return prop, noise_factor(q_dt), start
    a, q, _, det = _stable_2x2(drift, diffusion)
    if dt * math.sqrt(det) > 0.01:
        raise DomainError("euler mode requires dt * omega0 <= 0.01, omega0 = sqrt|det A|")
    return np.eye(2) + a * dt, noise_factor(q * dt), start


def _chunks(seed, n, chunk_size):
    """(streams, count) per chunk of members 0..n-1: chunk_size rounded up to
    whole blocks of 64, one PCG64 stream keyed by (seed, block) per block, and
    the number of the chunk's members that are not padding."""
    if seed < 0:
        raise DomainError("seed must be non-negative")
    if n < 1 or chunk_size < 1:
        raise DomainError("n_traj, n_real and chunk_size must be >= 1")
    n_blocks, per_chunk = -(-n // _BLOCK), -(-chunk_size // _BLOCK)
    for first in range(0, n_blocks, per_chunk):
        blocks = range(first, min(first + per_chunk, n_blocks))
        yield ([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5DE, b)))
                for b in blocks], min(n - _BLOCK * first, _BLOCK * len(blocks)))


def _draw(streams, factor, out):
    """Fill ``out`` (rows, 64 per stream, dim) with standard normals, one
    row-major tile per stream: SDE kicks with time-step rows, each times the
    2x2 noise ``factor``, or finite-bath mode normals (dim 1, factor None),
    copied as drawn, with one row per normal.

    Contiguous groups of streams fill on up to ``_WORKERS`` threads (normal
    fills, copies and matmul release the GIL).  The workers share the rows of
    one tile of scratch and fill each stream in pieces of their share; a
    stream fills in C order, so the values are those of one serial fill.
    """
    rows = len(out)
    factor_t = None if factor is None else np.ascontiguousarray(factor.T)
    workers = min(_WORKERS, len(streams), rows)
    tile = np.empty((rows, _BLOCK, out.shape[2]))

    def fill(group, scratch):
        for k in group:
            for r in range(0, rows, len(scratch)):
                piece = scratch[:rows - r]
                streams[k].standard_normal(out=piece)
                dest = out[r:r + len(piece), k * _BLOCK:(k + 1) * _BLOCK]
                if factor_t is None:
                    np.copyto(dest, piece)
                else:
                    np.matmul(piece, factor_t, out=dest)

    groups = np.array_split(np.arange(len(streams)), workers)
    if workers == 1:
        fill(groups[0], tile)
        return
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, groups, np.array_split(tile, workers)))  # re-raises a worker's error


def _propagate(prop, states):
    """Turn the kicks in states[1:] into states, in step order from states[0]."""
    prop_t = np.ascontiguousarray(prop.T)
    for t in range(1, len(states)):
        states[t] += states[t - 1] @ prop_t


def _chunk_sums(prop, factor, start, n_steps, observables, streams):
    """Per-trajectory sums of the observables over ``n_steps`` steps from a start
    drawn with factor ``start``, and the final states; the one buffer dies here."""
    buf = np.zeros((min(_BLOCK_STEPS, n_steps) + 1, _BLOCK * len(streams), len(prop)))
    sums = {name: np.zeros(buf.shape[1]) for name in observables}
    _draw(streams, start, buf[-1:])  # first in each stream; row 0 of the first tile
    for first in range(0, n_steps, _BLOCK_STEPS):
        # states[r] is the state after first + r steps; row 0 ends the previous run
        states = buf[:min(_BLOCK_STEPS, n_steps - first) + 1]
        states[0] = buf[-1]
        _draw(streams, factor, states[1:])
        _propagate(prop, states)
        for a in range(1, len(states), _SLAB_STEPS):
            b = min(a + _SLAB_STEPS, len(states))
            prev, cur = (states[i:i + b - a].reshape(-1, len(prop)) for i in (a - 1, a))
            for name, f in observables.items():
                # a reduction seeded with the running sum adds in step order
                sums[name] = np.vstack([sums[name], f(prev, cur).reshape(b - a, -1)]).sum(0)
    return sums, states[-1].copy()


def run_ensemble(drift, diffusion, dt, n_steps, n_traj, seed, observables, chunk_size,
                 method="exact", **meta):
    """Ensemble of the linear SDE stepped by :func:`stepper`: moments
    ``observables[name](prev, state)`` on (rows, dim) slabs, each trajectory
    started from N(0, Sigma) and time-averaged over its ``n_steps`` steps.
    Raises :class:`UnstableIntegrationError` when a chunk ends non-finite or
    with |x| > 1e6 sqrt(Sigma[0, 0]), padding trajectories aside.  ``meta``
    extends the result's dt, n_steps and method.
    """
    prop, factor, start = stepper(drift, diffusion, dt, n_steps, n_traj, method)
    bound = 1e6 * start[0, 0]
    accs = {name: MomentAccumulator() for name in observables}
    for streams, count in _chunks(seed, n_traj, chunk_size):
        sums, state = _chunk_sums(prop, factor, start, n_steps, observables, streams)
        state = state[:count]
        if not np.all(np.isfinite(state)) or np.max(np.abs(state[:, 0])) > bound:
            raise UnstableIntegrationError(
                "SDE trajectories diverged; reduce dt or use method='exact'")
        for name, acc in accs.items():
            acc.update_batch(sums[name][:len(state)] / n_steps)
    return EnsembleResult({name: acc.estimate() for name, acc in accs.items()}, n_traj, seed,
                          meta={"dt": dt, "n_steps": n_steps, "method": method, **meta})


def sample_paths(drift, diffusion, dt, n_steps, n_traj, seed, method="exact"):
    """(states, kicks) of the first ``n_traj`` trajectories of
    :func:`run_ensemble`, each of shape (n_steps + 1, n_traj, dim); kicks[k]
    drives states[k] -> states[k + 1] and the last kick is zero.  Whole
    blocks are drawn, start first, then sliced.
    """
    prop, factor, start = stepper(drift, diffusion, dt, n_steps, n_traj, method)
    (streams, _), = _chunks(seed, n_traj, n_traj)
    states, kicks = np.zeros((2, n_steps + 1, _BLOCK * len(streams), len(prop)))
    _draw(streams, start, states[:1])
    _draw(streams, factor, kicks[:-1])
    states[1:] = kicks[:-1]
    _propagate(prop, states)
    return states[:, :n_traj], kicks[:, :n_traj]
