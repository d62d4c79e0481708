"""Finite-N microscopic bath: every sampled value is one linear map of 2N normals.

A bath prepared in the displaced thermal state generates the noise

    f(t) = sum_j c_j [ s_j cos(w_j t) + (p_j / m_j w_j) sin(w_j t) ]

where s_j is the mode coordinate measured from its displaced equilibrium
c_j x(0) / (m_j w_j^2).  Sampling s_j and p_j as independent zero-mean
Gaussians with the thermal-state variances reproduces every symmetrized
noise statistic of the quantum bath; the antisymmetric (commutator) part
has no classical sample representation and is provided analytically only.

The memory equation of motion

    m x'' + Int_0^t mu(t - t') x'(t') dt' + m w0^2 x = f(t)

is not stepped: the oscillator and its modes (with the counterterm) form
one quadratic Hamiltonian, whose normal modes give x(t) and v(t) exactly at
any time (Ford, Kac & Mazur 1965; Ullersma 1966), with the same displaced
preparation q_j(0) = s_j + c_j x(0) / (m_j w_j^2).  The (N+1) x (N+1)
mass-weighted Hessian is an arrowhead matrix: its eigenvalues are the roots
of a secular equation, one between each two adjacent squared mode
frequencies, and each eigenvector is a closed form in its root, so the
normal modes cost O(N^2) time (Gu & Eisenstat, SIAM J. Matrix Anal. Appl.
16, 172 (1995); Jakovcevic Stor, Slapnicar & Barlow, Linear Algebra Appl.
464 (2015)).

So f(t), x(t) and v(t) at any time are each mean + row @ z, where z holds
a realization's 2N standard normals (the s normals first) and the row
carries the thermal standard deviations.  A pass builds the rows of all
its values once and applies them to each chunk of draws in one matmul;
the exact moments are the row norms, mean^2 + |row|^2.  Realization i is
column i % 64 of the (2N, 64) fill of the (seed, i // 64) block stream of
:mod:`.sde`, so it depends on (seed, i) alone; ensembles run in chunks with
mergeable moment accumulators, so chunked and serial runs agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathKind, BathSpec, ModeSet, SystemSpec
from .ensemble import EnsembleResult, MomentAccumulator
from .errors import ConvergenceError, DomainError, UnstableIntegrationError, UnsupportedBathError
from .quadrature import QuadratureConfig, integrate_panels, scaled_omega_coth
from .sde import _BLOCK, _SLAB_STEPS, _chunks, _draw

__all__ = [
    "TrajectoryGrid",
    "initial_slip",
    "noise_commutator_analytic",
    "noise_autocorrelation_quadrature",
    "ensemble_stats",
    "noise_ensemble_stats",
    "gle_ensemble_moments",
    "gle_moments_exact",
    "sample_trajectories",
]


@dataclass(frozen=True)
class TrajectoryGrid:
    """Uniform time grid t_i = i * dt, i = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def check_resolves(self, modes: ModeSet):
        """Require dt * max mode frequency < 0.1 for a series sampled on the grid."""
        fastest = float(np.max(modes.omega))
        if self.dt * fastest >= 0.1:
            raise DomainError(
                f"dt * max mode frequency = {self.dt * fastest:.3f} must be < 0.1"
            )


def thermal_variances(modes: ModeSet, system: SystemSpec):
    """Per-mode variances of the displaced coordinate and the momentum.

    (hbar / 2 m_j w_j) coth(hbar w_j / 2 kB T) and
    (hbar m_j w_j / 2) coth(...); in the hbar -> 0 limit these reduce to
    the equipartition values kB T / (m_j w_j^2) and m_j kB T.
    """
    c = system.thermal_coth(modes.omega)
    var_s = system.hbar / (2.0 * modes.mass * modes.omega) * c
    var_p = system.hbar * modes.mass * modes.omega / 2.0 * c
    return var_s, var_p


def initial_slip(modes: ModeSet, x0: float, t):
    """Initial-slip force mu(t) * x0 from the discrete kernel.

    Under the displaced preparation this term is absorbed into the noise:
    f(t) = g(t) - mu(t) x0 holds exactly per realization, with g the noise
    of the undisplaced preparation.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")
    weights = modes.kernel_weights()
    out = (np.cos(np.multiply.outer(t, modes.omega)) @ weights) * x0
    return out if out.ndim else float(out)


def noise_commutator_analytic(modes: ModeSet, system: SystemSpec, tau):
    """<[f(t), f(t')]> = -2 i hbar * sum_j (c_j^2 / 2 m_j w_j) sin(w_j tau).

    Returned as the imaginary coefficient (the sum with its real
    prefactor); the commutator itself is i times this.  Not sampled: a
    classical ensemble cannot realize it.
    """
    tau = np.asarray(tau, dtype=float)
    w = modes.coupling**2 / (2.0 * modes.mass * modes.omega)
    out = -2.0 * system.hbar * (np.sin(np.multiply.outer(tau, modes.omega)) @ w)
    return out if out.ndim else float(out)


def noise_autocorrelation_quadrature(system: SystemSpec, bath: BathSpec, tau,
                                     cfg: QuadratureConfig | None = None) -> float:
    """Continuum symmetric noise autocorrelation (hbar/pi) Int J coth cos.

    Only cutoff-Ohmic baths are supported: the strict-Ohmic version is a
    delta at tau = 0 and a discrete bath's J is a comb (its exact finite-N
    correlation is the cosine sum over modes instead).
    """
    if bath.kind is not BathKind.CUTOFF_OHMIC:
        raise UnsupportedBathError(
            "continuum noise autocorrelation requires a cutoff-Ohmic bath"
        )
    cfg = cfg or QuadratureConfig()
    a = system.thermal_coth_scale
    slope = 3.0 * math.pi * bath.mode_coupling**2 / (2.0 * bath.mode_mass * bath.cutoff**3)
    integrand = lambda w: slope * scaled_omega_coth(w, a)
    edges = np.linspace(0.0, bath.cutoff, 9)
    value, _ = integrate_panels(integrand, edges, cfg, tau=abs(float(tau)),
                                label="noise autocorrelation")
    return system.hbar / math.pi * value


def _noise_rows(modes: ModeSet, system: SystemSpec, times):
    """(len(times), 2N) rows of the noise: f at ``times`` is rows @ z."""
    sd_s, sd_p = np.sqrt(thermal_variances(modes, system))
    phases = np.multiply.outer(times, modes.omega)
    return np.hstack((np.cos(phases) * (modes.coupling * sd_s),
                      np.sin(phases) * (modes.coupling / (modes.mass * modes.omega) * sd_p)))


# iterations of :func:`_secular_roots` before it raises
_SECULAR_ITERATIONS = 50


def _secular_roots(alpha, w, d):
    """(p, tau) with the roots lam = p + tau of the secular equation
    alpha - lam - sum_j w_j / (d_j - lam) = 0 for strictly increasing poles d
    and positive weights w.

    One root lies below d_0, one in each gap and one above d_{n-1}.  Each
    is solved for as tau = lam - p from its nearer pole p, so that
    d_j - lam = (d_j - p) - tau keeps its relative accuracy next to p; an
    inner root starts at the midpoint of its gap, where the function's sign
    picks p.  A step goes to the root of a - w_p / tau + S / (f - tau), which
    keeps the near pole's weight exact and matches value and slope with a
    and the weight S of the gap's other end f (the fixed-weight method), or
    bisects when that leaves the sign bracket.  A root has converged when
    the function is below its rounding error or the step below the
    resolution of tau.
    """
    n, eps = d.size, np.finfo(float).eps
    spread = math.sqrt(w.sum())
    # root k lies in (ends[k], ends[k + 1]); the outer ends bound the spectrum
    ends = np.concatenate(([min(alpha, d[0]) - spread], d, [max(alpha, d[-1]) + spread]))
    k = np.arange(n + 1)
    gap = ends[k + 1] - ends[k]
    near = np.maximum(k - 1, 0)
    shift = d[near]
    lo, hi = ends[k] - shift, ends[k + 1] - shift
    far = np.where(k > 0, hi, lo)
    # the outer ends are bounds, not poles: the model's far pole goes beyond them
    far[[0, n]] *= 2.0
    tau, act = 0.5 * (lo + hi), k
    for it in range(_SECULAR_ITERATIONS):
        t = tau[act]
        diff = d - shift[act, None]
        diff -= t[:, None]
        terms = w / diff
        g = t - (alpha - shift[act]) + terms.sum(1)
        live = np.abs(g) > 8.0 * eps * (np.abs(alpha - shift[act]) + np.abs(t)
                                        + np.abs(terms).sum(1))
        if not live.all():
            act, t, g, diff, terms = act[live], t[live], g[live], diff[live], terms[live]
        lo[act] = np.where(g < 0, t, lo[act])
        hi[act] = np.where(g > 0, t, hi[act])
        if not it:
            # an inner root above its gap's midpoint is solved for from the upper pole
            up = (g < 0) & (act > 0) & (act < n)
            sel = act[up]
            shift[sel], near[sel], far[sel], lo[sel], hi[sel] = (
                ends[sel + 1], sel, -gap[sel], -0.5 * gap[sel], 0.0)
            t = np.where(up, -0.5 * gap[act], t)
        slope = np.divide(terms, diff, out=diff)
        slope[np.arange(act.size), near[act]] = 0.0
        near_w, d_near, d_far = w[near[act]], -t, far[act] - t
        far_w = (1.0 + slope.sum(1)) * d_far**2
        a = g - near_w / d_near - far_w / d_far
        # the model's root t + eta: a eta^2 - bb eta + c = 0, eta between d_near and d_far
        bb, c = a * (d_near + d_far) + near_w + far_w, d_near * d_far * g
        q = bb + np.copysign(np.sqrt(np.maximum(bb * bb - 4.0 * a * c, 0.0)), bb)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = 2.0 * c / q
            step = np.where((step - d_near) * (step - d_far) < 0, step, q / (2.0 * a))
        small = np.abs(step) <= 2.0 * eps * np.abs(t)
        new = t + step
        new = np.where(small | ((new > lo[act]) & (new < hi[act])), new,
                       0.5 * (lo[act] + hi[act]))
        tau[act] = new
        act = act[~small & (np.abs(new - t) > 2.0 * eps * np.abs(t))]
        if not act.size:
            return shift, tau
    raise ConvergenceError(f"secular equation: {act.size} of {n + 1} normal modes "
                           f"unconverged after {_SECULAR_ITERATIONS} iterations")


def _arrowhead_eigen(alpha, b, d):
    """Ascending eigenvalues and, as rows, orthonormal eigenvectors of the
    symmetric arrowhead matrix [[alpha, b^T], [b, diag(d)]].

    A coupling that is zero to rounding leaves (d_j, e_j) an eigenpair.  Each
    run of coupled equal poles acts as one pole of weight |b_run|^2, plus
    decoupled eigenvectors orthogonal to b_run.  The rest are the roots lam
    of the secular equation (:func:`_secular_roots`), with eigenvectors
    proportional to (1, b / (lam - d)).
    """
    n = d.size
    tol = 8.0 * np.finfo(float).eps * (max(abs(alpha), np.abs(d).max()) + np.linalg.norm(b))
    free = np.abs(b) <= tol
    b = np.where(free, 0.0, b)
    coupled = np.argsort(d, kind="stable")
    coupled = coupled[~free[coupled]]
    first = np.flatnonzero(np.diff(d[coupled], prepend=-np.inf) > tol)
    size = np.diff(first, append=coupled.size)
    vals, vecs = np.empty(n + 1), np.zeros((n + 1, n + 1))
    col = np.count_nonzero(free)
    vals[:col] = d[free]
    vecs[np.arange(col), 1 + np.flatnonzero(free)] = 1.0
    for g in np.flatnonzero(size > 1):
        run = coupled[first[g]:first[g] + size[g]]
        vals[col:col + run.size - 1] = d[run[0]]
        vecs[col:col + run.size - 1, 1 + run] = np.linalg.qr(b[run, None], "complete")[0][:, 1:].T
        col += run.size - 1
    if coupled.size:
        shift, tau = _secular_roots(alpha, np.add.reduceat(b[coupled] ** 2, first),
                                    d[coupled[first]])
        ratio = d - shift[:, None]
        ratio -= tau[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(b, ratio, out=ratio)
        # a decoupled mode has no part in a coupled eigenvector, even on its root
        ratio[:, free] = 0.0
        u0 = 1.0 / np.sqrt(1.0 + (ratio * ratio).sum(1))
        vals[col:], vecs[col:, 0] = shift + tau, u0
        np.multiply(ratio, -u0[:, None], out=vecs[col:, 1:])
    else:
        vals[col], vecs[col, 0] = alpha, 1.0
    rank = np.argsort(vals, kind="stable")
    return vals[rank], vecs[rank]


class _NormalModes:
    """Exact response of the oscillator and its N modes.

    In coordinates z = (x, q_1..q_N) with masses M the Hessian has
    K_00 = m w0^2 + sum_j c_j^2 / (m_j w_j^2), K_0j = -c_j and
    K_jj = m_j w_j^2, so M^-1/2 K M^-1/2 is the arrowhead matrix of
    :func:`_arrowhead_eigen`, with b_j = -c_j / sqrt(m m_j) and poles w_j^2.
    With its eigendecomposition M^-1/2 K M^-1/2 = U diag(W^2) U^T from the
    secular equation,

        x(t) = sum_k a_k [cos(W_k t) (P z)_k + sin(W_k t) / W_k (P z')_k]

    where a = U[0] / sqrt(m) and P = U^T M^1/2.  At w0 = 0 one W_k is zero
    and sin(W t) / W takes its limit t.  Started at (x0, 0) in the displaced
    preparation, P z = x0 * start + s_rows @ z[:N] and P z' = p_rows @ z[N:]
    for the 2N standard normals z.
    """

    def __init__(self, modes: ModeSet, system: SystemSpec):
        root = np.sqrt(np.concatenate(([system.mass], modes.mass)))
        eigval, vecs = _arrowhead_eigen(
            system.omega0**2 + modes.kernel_weights().sum() / system.mass,
            -modes.coupling / (root[0] * root[1:]), modes.omega**2)
        self.freq = np.sqrt(np.clip(eigval, 0.0, None))
        self.amp = vecs[:, 0] / root[0]
        proj = vecs * root
        sd_s, sd_p = np.sqrt(thermal_variances(modes, system))
        self.start = proj @ np.concatenate(([1.0], modes.coupling / (modes.mass * modes.omega**2)))
        self.s_rows, self.p_rows = proj[:, 1:] * sd_s, proj[:, 1:] * (sd_p / modes.mass)

    def basis(self, times):
        """(cos - 1, sin / W, -W sin) of W t, each (len(times), N+1) times a."""
        wt = np.multiply.outer(times, self.freq)
        # cos - 1 about the exact initial values keeps t = 0 exact
        cosm1 = -2.0 * np.sin(0.5 * wt) ** 2 * self.amp
        sinc = times[:, None] * np.sinc(wt / np.pi) * self.amp
        return cosm1, sinc, -self.freq * np.sin(wt) * self.amp

    def response(self, times, x0):
        """(mean, rows) of x at ``times`` followed by v at ``times``: each
        value is mean + rows @ z for a realization's 2N standard normals z."""
        cosm1, sinc, dsin = self.basis(times)
        mean = x0 * np.concatenate((1.0 + cosm1 @ self.start, dsin @ self.start))
        return mean, np.block([[cosm1 @ self.s_rows, sinc @ self.p_rows],
                               [dsin @ self.s_rows, cosm1 @ self.p_rows]])


def _finite(values):
    if not np.all(np.isfinite(values)):
        raise UnstableIntegrationError("normal-mode propagation is not finite")
    return values


def _normals(n_real: int, seed: int, chunk_size: int, n_normals: int):
    """(n_normals, count) standard normals per chunk of realizations
    0..n_real-1: one ``_draw`` per chunk into one buffer that serves every
    chunk, so each view is valid until the next chunk."""
    draws = None
    for streams, count in _chunks(seed, n_real, chunk_size):
        if draws is None:
            draws = np.empty((n_normals, _BLOCK * len(streams), 1))
        _draw(streams, None, draws[:, :_BLOCK * len(streams)])
        yield draws[:, :count, 0]


def _ensemble(modes: ModeSet, system: SystemSpec, taus, origins, n_real: int, seed: int,
              chunk_size: int, final=None):
    """(noise statistics, [<x^2>, <v^2>] estimates) of one pass that applies
    the noise rows and the ``final`` (mean, rows) of x(T) and v(T), if
    given, to each chunk of normals in one matmul."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0):
        raise DomainError("lags must be nonnegative")
    origins = np.atleast_1d(np.asarray(origins if origins is not None else [0.0],
                                       dtype=float))
    times, where = np.unique(np.concatenate([taus, origins, np.add.outer(taus, origins).ravel()]),
                             return_inverse=True)
    tau_idx, base_idx, lag_idx = np.split(where, [taus.size, taus.size + origins.size])
    lag_idx = lag_idx.reshape(taus.size, origins.size)
    rows, mean = _noise_rows(modes, system, times), ()
    if final is not None:
        mean, final_rows = final
        rows = np.vstack((rows, final_rows))
    mean_acc, corr_acc = ([MomentAccumulator() for _ in taus] for _ in range(2))
    moment_acc = [MomentAccumulator() for _ in mean]
    for z in _normals(n_real, seed, chunk_size, rows.shape[1]):
        y = _finite(rows @ z)
        f_base = y[base_idx]
        for j in range(taus.size):
            mean_acc[j].update_batch(y[tau_idx[j]])
            corr_acc[j].update_batch((f_base * y[lag_idx[j]]).mean(axis=0))
        for acc, m, values in zip(moment_acc, mean, y[len(times):]):
            acc.update_batch((m + values) ** 2)
    return ({"taus": taus, "mean": [acc.estimate() for acc in mean_acc],
             "autocorr": [acc.estimate() for acc in corr_acc]},
            [acc.estimate() for acc in moment_acc])


def ensemble_stats(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid, taus,
                   n_real: int, seed: int, origins=None, x0: float = 0.0,
                   chunk_size: int = 2048, _final=None):
    """(noise statistics, final-time moments) of one pass over ``n_real``
    realizations: what :func:`noise_ensemble_stats` (lags ``taus`` from
    ``origins``) and :func:`gle_ensemble_moments` (``grid``, ``x0``) return
    at the same seed and chunk size.  The noise rows and the x(T), v(T)
    rows form one matrix, so each chunk is drawn once and multiplied once.
    ``_final`` passes in these x(T), v(T) rows from normal modes built before.
    """
    final = _final or _NormalModes(modes, system).response(
        np.array([grid.dt * grid.n_steps]), x0)
    stats, (x2, v2) = _ensemble(modes, system, taus, origins, n_real, seed, chunk_size, final)
    return stats, EnsembleResult({"x2": x2, "v2": v2}, n_real, seed,
                                 meta={"dt": grid.dt, "n_steps": grid.n_steps, "x0": float(x0),
                                       "n_modes": modes.count})


def noise_ensemble_stats(modes: ModeSet, system: SystemSpec, taus, n_real: int,
                         seed: int, origins=None, chunk_size: int = 4096):
    """Monte Carlo noise statistics over an ensemble of realizations.

    Returns a dict with per-lag estimates of the mean noise f(tau) and of
    the symmetric autocorrelation at lag tau.  For classical samples the
    operator ordering is immaterial, so <f(t0) f(t0 + tau)> estimates the
    symmetrized correlation; the ensemble is stationary, and passing a
    grid of time ``origins`` averages the product over t0 within each
    realization before accumulating, which tightens the standard error
    without biasing it (realizations stay independent units).
    """
    return _ensemble(modes, system, taus, origins, n_real, seed, chunk_size)[0]


def gle_ensemble_moments(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                         n_real: int, seed: int, x0: float = 0.0,
                         chunk_size: int = 2048) -> EnsembleResult:
    """Ensemble moments of the memory dynamics at the final grid time.

    Starts every realization at (x0, 0) with bath modes drawn from the
    displaced thermal state; reports <x^2> and <v^2> at t = n_steps * dt,
    where each realization is propagated exactly, so any dt is allowed.
    """
    return ensemble_stats(modes, system, grid, [], n_real, seed, origins=[], x0=x0,
                          chunk_size=chunk_size)[1]


def gle_moments_exact(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                      x0: float = 0.0):
    """Exact (<x^2>, <v^2>) at the final grid time of the ensemble sampled
    by :func:`gle_ensemble_moments`, without sampling error.

    x(T) and v(T) are mean + row @ z in the 2N independent standard
    normals z of a realization, so each moment is mean^2 + |row|^2.
    """
    mean, rows = _NormalModes(modes, system).response(np.array([grid.dt * grid.n_steps]), x0)
    return tuple(float(m ** 2 + row @ row) for m, row in zip(mean, rows))


def sample_trajectories(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                        n_traj: int, seed: int, x0: float = 0.0, _normal_modes=None):
    """(times, x, v, f) of the first ``n_traj`` realizations of
    :func:`gle_ensemble_moments` on ``grid.times``.

    Arrays are (n_steps + 1, n_traj); f is each realization's noise force.
    Each whole block of 64 draws is first projected onto the normal modes,
    then the time axis goes in slabs, so memory is that of the output plus
    one block, and no bit of a series depends on n_traj.  ``_normal_modes``
    passes in a ``_NormalModes(modes, system)`` built before.
    """
    grid.check_resolves(modes)
    normal_modes, times, n = _normal_modes or _NormalModes(modes, system), grid.times, modes.count
    series = np.empty((3, times.size, n_traj))
    blocks = _normals(_BLOCK * -(-n_traj // _BLOCK), seed, _BLOCK, 2 * n)
    for first, z in zip(range(0, n_traj, _BLOCK), blocks):
        pz = x0 * normal_modes.start[:, None] + normal_modes.s_rows @ z[:n]
        pp = normal_modes.p_rows @ z[n:]
        width = min(_BLOCK, n_traj - first)
        for a in range(0, times.size, _SLAB_STEPS):
            t = times[a:a + _SLAB_STEPS]
            cosm1, sinc, dsin = normal_modes.basis(t)
            for out, values in zip(series, (x0 + cosm1 @ pz + sinc @ pp, dsin @ pz + cosm1 @ pp,
                                            _noise_rows(modes, system, t) @ z)):
                out[a:a + t.size, first:first + width] = values[:, :width]
    return (times, *_finite(series))
