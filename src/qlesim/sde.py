"""One ensemble engine for the 2D linear SDEs of the Markovian and RWA dynamics.

Both dynamics are stable 2x2 linear systems

    dS = A S dt + dW,   cov(dW) = Q dt,   tr A < 0 < det A,

whose transition over a step h is Gaussian with mean e^{A h} S and
covariance Sigma - e^{A h} Sigma e^{A h}^T, where Sigma solves the
Lyapunov equation A Sigma + Sigma A^T + Q = 0.  Both have 2x2 closed forms:
:func:`propagator_coefficients` is the one evaluation of e^{A t} in the
package, and :func:`stationary_covariance` gives Sigma.  There is one
scheme, the exact Gaussian step, unbiased at any step size and free of
overflow.

Engine contract, shared with the finite bath of :mod:`.microbath`: members
come in blocks of 64 and chunks of whole blocks; block b fills row-major
tiles of normals from its (seed, b) SFC64 stream and member i takes column
i % 64 of block i // 64, so it depends on (seed, i) alone, not on the
ensemble size, chunking or tiling; each tile is mapped into its stream's 64
columns as drawn (a finite-bath tile has one row per sampled value).  Both
ensembles run through one driver, :func:`_accumulate`: one thread pool per
call (up to the usable CPUs), each worker taking a contiguous group of a
chunk's streams and returning per-member values by name, which the driver
checks finite and accumulates in member order, so results do not depend on
the worker count.  SDE trajectories start from N(0, Sigma), drawn first; a
group steps in one (slab steps + 1, members, dim) buffer, one 64-step slab of
draws at a time, or, when its chunk leaves a worker idle, in two buffers of
256-step spans, that worker drawing the next span into one while the group
steps the other: the same normals in the same order.  Each observable
writes a slab into rows 1 on of one block seeded in row 0 with its running
sum, so it sums in step order.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .ensemble import MomentAccumulator
from .errors import DomainError, UnstableIntegrationError

__all__ = ["stationary_covariance", "propagator_coefficients", "exact_discretization",
           "noise_factor", "run_ensemble", "sample_paths"]

# trajectories per stream; steps per observable slab (and draw, with no worker to spare);
# fewest blocks per SDE worker; slabs per span of kicks drawn ahead by a spare worker
_BLOCK, _SLAB_STEPS, _GROUP_BLOCKS, _SPAN_SLABS = 64, 64, 8, 4
# ensemble workers: the usable CPUs
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


def propagator_coefficients(tr, det, t):
    """(c0, c1) with e^{A t} = c0 I + c1 (A - s I), s = tr A/2, for a 2x2
    drift A with trace ``tr`` < 0 < ``det`` (its determinant) and t >= 0.

    With r = sqrt(s^2 - det A), the slow root det A/(s - r) (free of
    cancellation), u = r t and g = e^{slow t} / (1 + tanh u),

        c0 = Re g,   c1 = Re[g t tanh(u)/u],

    which is e^{s t} [cosh u, sinh(u)/r] with |1 + tanh u| >= 1: exact at
    critical damping (u = 0) and free of overflow.
    """
    s = 0.5 * tr
    r = cmath.sqrt(s * s - det)
    u = r * t
    th = cmath.tanh(u)
    grow = cmath.exp(det / (s - r) * t) / (1.0 + th)
    return grow.real, (grow * t * (th / u if u else 1.0)).real


def exact_discretization(drift, diffusion, dt):
    """(E, Q_dt) of the stable 2x2 linear SDE with drift A and noise
    covariance rate Q: the propagator E = e^{A dt} of
    :func:`propagator_coefficients` and the exact per-step noise covariance
    Q_dt = Sigma - E Sigma E^T (see :func:`stationary_covariance`).  Q_dt
    carries an absolute error of order eps * |Sigma|, so at steps far below
    the relaxation time its relative error grows as |Sigma| / |Q dt|.
    """
    if not dt > 0:
        raise DomainError("dt must be positive")
    a, _, tr, det = _stable_2x2(drift, diffusion)
    cov = stationary_covariance(a, diffusion)
    c0, c1 = propagator_coefficients(tr, det, dt)
    prop = c0 * np.eye(2) + c1 * (a - 0.5 * tr * np.eye(2))
    q_dt = cov - prop @ cov @ prop.T
    return prop, 0.5 * (q_dt + q_dt.T)


def noise_factor(cov):
    """Lower Cholesky factor L, L @ L.T = cov, of a 2x2 covariance; continuous
    in cov, with a zero first column where cov[0, 0] <= 0."""
    (a, b), (_, c) = np.asarray(cov, dtype=float)
    if not a > 0:
        return np.array([[0.0, 0.0], [0.0, math.sqrt(max(c, 0.0))]])
    l00 = math.sqrt(a)
    return np.array([[l00, 0.0], [b / l00, math.sqrt(max(c - (b / l00) ** 2, 0.0))]])


def _stepper(drift, diffusion, dt, n_steps, n_traj):
    """Checked propagator E, noise factor L of one exact step and start
    factor noise_factor(Sigma) of the stable 2x2 linear SDE."""
    if not 0 < dt < math.inf or n_steps < 1 or n_traj < 1:
        raise DomainError("dt, n_steps and n_traj must be positive (dt finite)")
    prop, q_dt = exact_discretization(drift, diffusion, dt)
    return prop, noise_factor(q_dt), noise_factor(stationary_covariance(drift, diffusion))


def _chunks(seed, n, chunk_size):
    """(streams, count) per chunk of members 0..n-1: chunk_size rounded up to
    whole blocks of 64, one SFC64 stream keyed by (seed, block) per block, and
    the number of the chunk's members that are not padding."""
    if seed < 0:
        raise DomainError("seed must be non-negative")
    if n < 1 or chunk_size < 1:
        raise DomainError("n_traj, n_real and chunk_size must be >= 1")
    n_blocks, per_chunk = -(-n // _BLOCK), -(-chunk_size // _BLOCK)
    for first in range(0, n_blocks, per_chunk):
        blocks = range(first, min(first + per_chunk, n_blocks))
        keys = (np.random.SeedSequence(seed, spawn_key=(0x5DE, b)) for b in blocks)
        yield ([np.random.Generator(np.random.SFC64(key)) for key in keys],
               min(n - _BLOCK * first, _BLOCK * len(blocks)))


def _accumulate(seed, n, chunk_size, work, least):
    """Moment estimates, by name, of the per-member values that
    ``work(streams, spare)`` returns for members 0..n-1 of :func:`_chunks`:
    each chunk's streams go in up to one contiguous group of at least
    ``least`` per worker, the first here and the rest on one pool, and
    ``spare`` is that pool for the first group when the chunk leaves a worker
    idle, else None.  Raises :class:`UnstableIntegrationError` on a
    non-finite value, padding aside, or standard error.
    """
    accs = {}
    with ThreadPoolExecutor(max(_WORKERS - 1, 1)) as pool:
        for streams, count in _chunks(seed, n, chunk_size):
            groups = np.array_split(streams, max(min(_WORKERS, len(streams) // least), 1))
            futures = [pool.submit(work, group, None) for group in groups[1:]]
            parts = ([work(groups[0], pool if len(groups) < _WORKERS else None)]
                     + [future.result() for future in futures])  # re-raises
            accs = accs or {name: MomentAccumulator() for name in parts[0]}
            for name, acc in accs.items():
                values = np.concatenate([part[name] for part in parts])[:count]
                if not np.all(np.isfinite(values)):
                    raise UnstableIntegrationError("ensemble members diverged to non-finite values")
                with np.errstate(over="ignore"):  # an overflow leaves m2 inf, raised below
                    acc.update_batch(values)
    if not all(math.isfinite(acc.m2) for acc in accs.values()):
        raise UnstableIntegrationError("the ensemble variance overflows the floats, "
                                       "so the standard error is not finite")
    return {name: acc.estimate() for name, acc in accs.items()}


def _draw(streams, factor, out):
    """Fill each stream's 64 columns of ``out``, in stream order, with a
    linear map of one row-major tile of its standard normals: SDE kicks,
    ``out`` (rows, 64 per stream, dim), each dim-vector times the 2x2 noise
    ``factor``; finite-bath values, ``out`` (values, 64 per stream),
    ``factor @ tile`` of a (k, 64) tile for the (values, k) ``factor``.
    """
    if out.ndim == 3:
        shape, factor_t = out[:, :_BLOCK].shape, np.ascontiguousarray(factor.T)
        apply = lambda tile, dest: np.matmul(tile, factor_t, out=dest)
    else:
        shape = (factor.shape[1], _BLOCK)
        apply = lambda tile, dest: np.matmul(factor, tile, out=dest)
    tile = np.empty(shape)
    for k, stream in enumerate(streams):
        stream.standard_normal(out=tile)
        apply(tile, out[:, k * _BLOCK:(k + 1) * _BLOCK])


def _propagate(prop, states):
    """Turn the kicks in states[1:] into states, in step order from states[0]."""
    prop_t = np.ascontiguousarray(prop.T)
    for t in range(1, len(states)):
        states[t] += states[t - 1].dot(prop_t)  # the dgemm of @, without its dispatch


def _chunk_sums(prop, factor, start, n_steps, observables, streams, spare):
    """Per-trajectory time averages of the observables over ``n_steps`` steps
    from a start drawn with factor ``start``; the buffers die here.  Kicks come
    one 64-step slab at a time into one buffer, or with a ``spare`` pool one
    span at a time, its thread drawing the next into a second buffer."""
    span = _SLAB_STEPS * (_SPAN_SLABS if spare else 1)
    bufs = np.zeros((2 if spare else 1, min(span, n_steps) + 1, _BLOCK * len(streams), len(prop)))
    block = np.empty((min(_SLAB_STEPS, n_steps) + 1, bufs.shape[2]))
    sums = {name: np.zeros(bufs.shape[2]) for name in observables}
    # span k, in buffer k % 2: states[r] is the state after k * span + r steps
    spans = lambda k: bufs[k % len(bufs), :min(span, n_steps - k * span) + 1]
    _draw(streams, start, bufs[-1, -1:])  # first in each stream; row 0 of the first span
    pending = None
    for k in range(-(-n_steps // span)):
        # row 0, the end of the previous span, is no row that a pending fill writes
        states = spans(k)
        states[0] = bufs[k % len(bufs) - 1, -1]
        pending.result() if pending else _draw(streams, factor, states[1:])  # re-raises
        ahead = spare and (k + 1) * span < n_steps
        pending = spare.submit(_draw, streams, factor, spans(k + 1)[1:]) if ahead else None
        for rows in (states[a:a + _SLAB_STEPS + 1] for a in range(0, len(states) - 1, _SLAB_STEPS)):
            _propagate(prop, rows)
            prev, cur = (rows[i:len(rows) - 1 + i].reshape(-1, len(prop)) for i in (0, 1))
            for name, f in observables.items():
                # a reduction seeded with the running sum in row 0 adds in step order
                block[0] = sums[name]
                f(prev, cur, block[1:len(rows)].reshape(-1))
                block[:len(rows)].sum(0, out=sums[name])
    return {name: total / n_steps for name, total in sums.items()}


def run_ensemble(drift, diffusion, dt, n_steps, n_traj, seed, observables, chunk_size):
    """Ensemble of the linear SDE under its exact step: the {name:
    MomentEstimate} dict of each trajectory's ``n_steps``-step time average,
    from N(0, Sigma), of ``observables[name](prev, state, out)``, which writes
    its values on (rows, dim) slabs into ``out`` (rows,).  Raises
    :class:`UnstableIntegrationError` when a time average is non-finite.
    """
    prop, factor, start = _stepper(drift, diffusion, dt, n_steps, n_traj)
    # a worker steps its streams through the whole chunk: one hand-off per
    # chunk, and per 256-step span only to a worker that would idle; one per
    # 64-step slab of draws stalled on a busy host
    return _accumulate(seed, n_traj, chunk_size, lambda streams, spare: _chunk_sums(
        prop, factor, start, n_steps, observables, streams, spare), _GROUP_BLOCKS)


def sample_paths(drift, diffusion, dt, n_steps, n_traj, seed):
    """(states, kicks) of the first ``n_traj`` trajectories of
    :func:`run_ensemble`, each of shape (n_steps + 1, n_traj, dim); kicks[k]
    drives states[k] -> states[k + 1] and the last kick is zero.  Whole
    blocks are drawn, start first, then sliced.
    """
    prop, factor, start = _stepper(drift, diffusion, dt, n_steps, n_traj)
    (streams, _), = _chunks(seed, n_traj, n_traj)
    states, kicks = np.zeros((2, n_steps + 1, _BLOCK * len(streams), len(prop)))
    _draw(streams, start, states[:1])
    _draw(streams, factor, kicks[:-1])
    states[1:] = kicks[:-1]
    _propagate(prop, states)
    return states[:, :n_traj], kicks[:, :n_traj]
