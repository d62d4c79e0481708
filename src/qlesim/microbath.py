"""Finite-N microscopic bath: sampled noise and memory-kernel dynamics.

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
one quadratic Hamiltonian, so diagonalizing the (N+1) x (N+1)
mass-weighted Hessian gives x(t) and v(t) exactly at any time (Ford, Kac
& Mazur 1965; Ullersma 1966), with the same displaced preparation
q_j(0) = s_j + c_j x(0) / (m_j w_j^2).  The same decomposition gives the
exact finite-N ensemble moments.  Realizations are independent work units
keyed by (seed, index); ensembles are processed in chunks with mergeable
moment accumulators, so chunked and serial runs agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import multi_dot

from .bath import BathKind, BathSpec, ModeSet, SystemSpec
from .ensemble import EnsembleResult, MomentAccumulator
from .errors import DomainError, UnstableIntegrationError, UnsupportedBathError
from .quadrature import QuadratureConfig, integrate_panels, scaled_omega_coth
from .sde import trajectory_seeds

__all__ = [
    "BathInitialConditions",
    "TrajectoryGrid",
    "sample_initial_conditions",
    "noise_trajectory",
    "initial_slip",
    "noise_commutator_analytic",
    "noise_autocorrelation_quadrature",
    "integrate_gle",
    "noise_ensemble_stats",
    "gle_ensemble_moments",
    "gle_moments_exact",
    "sample_trajectories",
]


@dataclass(frozen=True, eq=False)
class BathInitialConditions:
    """Sampled mode coordinates (relative to the displaced minima) and momenta."""

    displacement: np.ndarray
    momentum: np.ndarray
    x0: float

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.displacement, dtype=float))
        p = np.atleast_1d(np.asarray(self.momentum, dtype=float))
        object.__setattr__(self, "displacement", d)
        object.__setattr__(self, "momentum", p)
        if d.size != p.size:
            raise DomainError("displacement and momentum counts differ")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(p))):
            raise DomainError("initial conditions must be finite")

    @property
    def count(self) -> int:
        return int(self.displacement.size)


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


def sample_initial_conditions(modes: ModeSet, system: SystemSpec, x0: float,
                              rng) -> BathInitialConditions:
    """Draw one realization of the displaced thermal state.

    ``rng`` is a :class:`numpy.random.Generator` or an integer seed.  Only
    the symmetric second moments are realized; the imaginary cross moment
    of the quantum state is not sampleable and cancels from symmetrized
    observables.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    var_s, var_p = thermal_variances(modes, system)
    s = rng.standard_normal(modes.count) * np.sqrt(var_s)
    p = rng.standard_normal(modes.count) * np.sqrt(var_p)
    return BathInitialConditions(displacement=s, momentum=p, x0=float(x0))


def _noise_coefficients(modes: ModeSet, s, p):
    """Cosine and sine amplitudes of the noise along the last axis of s, p."""
    return modes.coupling * s, modes.coupling * p / (modes.mass * modes.omega)


def noise_trajectory(modes: ModeSet, ics: BathInitialConditions,
                     grid: TrajectoryGrid) -> np.ndarray:
    """Deterministic noise series f(t_i) for one sampled realization."""
    if ics.count != modes.count:
        raise DomainError("initial conditions do not match the mode count")
    grid.check_resolves(modes)
    a, b = _noise_coefficients(modes, ics.displacement, ics.momentum)
    phases = np.multiply.outer(grid.times, modes.omega)
    return np.cos(phases) @ a + np.sin(phases) @ b


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


class _NormalModes:
    """Exact propagator of the oscillator and its N modes.

    In coordinates z = (x, q_1..q_N) with masses M the Hessian has
    K_00 = m w0^2 + sum_j c_j^2 / (m_j w_j^2), K_0j = -c_j and
    K_jj = m_j w_j^2.  With M^-1/2 K M^-1/2 = U diag(W^2) U^T,

        x(t) = sum_k a_k [cos(W_k t) (P z)_k + sin(W_k t) / W_k (P z')_k]

    where a = U[0] / sqrt(m) and P = U^T M^1/2.  At w0 = 0 one W_k is zero
    and sin(W t) / W takes its limit t.
    """

    def __init__(self, modes: ModeSet, system: SystemSpec):
        self.modes = modes
        hessian = np.diag(np.concatenate((
            [system.mass * system.omega0**2 + modes.kernel_weights().sum()],
            modes.mass * modes.omega**2)))
        hessian[0, 1:] = hessian[1:, 0] = -modes.coupling
        root = np.sqrt(np.concatenate(([system.mass], modes.mass)))
        eigval, vecs = np.linalg.eigh(hessian / np.outer(root, root))
        self.freq = np.sqrt(np.clip(eigval, 0.0, None))
        self.amp = vecs[0] / root[0]
        self.proj = vecs.T * root

    def propagate(self, times, x0, v0, s, p):
        """(x, v), each (len(times), batch), of oscillators started at
        (x0, v0) with mode displacements s and momenta p of shape (batch, N)
        in the displaced preparation; raises if a value is not finite.
        """
        modes = self.modes
        batch = len(s)
        z = np.vstack((np.full((1, batch), x0),
                       (s + modes.coupling * x0 / (modes.mass * modes.omega**2)).T))
        zdot = np.vstack((np.full((1, batch), v0), (p / modes.mass).T))
        wt = np.multiply.outer(times, self.freq)
        # cos - 1 about the exact initial values keeps t = 0 exact
        cosm1 = -2.0 * np.sin(0.5 * wt) ** 2 * self.amp
        sinc = times[:, None] * np.sinc(wt / np.pi) * self.amp
        dsin = -self.freq * np.sin(wt) * self.amp
        x = x0 + multi_dot([cosm1, self.proj, z]) + multi_dot([sinc, self.proj, zdot])
        v = v0 + multi_dot([dsin, self.proj, z]) + multi_dot([cosm1, self.proj, zdot])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise UnstableIntegrationError("normal-mode propagation is not finite")
        return x, v


def _thermal_draws(modes: ModeSet, system: SystemSpec, n_real: int, seed: int,
                   chunk_size: int):
    """(s, p), each (batch, N), per chunk of realizations 0..n_real-1.

    Realization i draws 2N normals from its (seed, i) stream, s first and
    then p, scaled by the thermal standard deviations.
    """
    if n_real < 1 or chunk_size < 1:
        raise DomainError("n_real and chunk_size must be >= 1")
    sd_s, sd_p = np.sqrt(thermal_variances(modes, system))
    n = modes.count

    def chunks():
        for start in range(0, n_real, chunk_size):
            rngs = trajectory_seeds(seed, range(start, min(start + chunk_size, n_real)))
            draws = np.stack([r.standard_normal(2 * n) for r in rngs])
            yield draws[:, :n] * sd_s, draws[:, n:] * sd_p

    return chunks()


def integrate_gle(modes: ModeSet, ics: BathInitialConditions, system: SystemSpec,
                  grid: TrajectoryGrid, x0: float | None = None,
                  v0: float = 0.0):
    """One realization of the memory equation of motion, solved exactly.

    Returns (x, v) arrays on ``grid.times``.  The oscillator starts at
    ``ics.x0`` (or an explicit ``x0``) with velocity ``v0``; the noise is
    the deterministic mode sum for this realization.
    """
    grid.check_resolves(modes)
    x, v = _NormalModes(modes, system).propagate(
        grid.times, ics.x0 if x0 is None else float(x0), float(v0),
        ics.displacement[None], ics.momentum[None])
    return x[:, 0], v[:, 0]


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
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0):
        raise DomainError("lags must be nonnegative")
    origins = np.atleast_1d(np.asarray(origins if origins is not None else [0.0],
                                       dtype=float))
    times = np.unique(np.concatenate([taus, origins, (origins[:, None] + taus).ravel()]))
    where = {t: i for i, t in enumerate(times)}
    tau_idx = np.array([where[t] for t in taus])
    cos_t = np.cos(np.multiply.outer(times, modes.omega))
    sin_t = np.sin(np.multiply.outer(times, modes.omega))

    lag_origin_idx = np.array([[where[t0 + tau] for t0 in origins] for tau in taus])
    base_idx = np.array([where[t0] for t0 in origins])

    mean_acc = [MomentAccumulator() for _ in taus]
    corr_acc = [MomentAccumulator() for _ in taus]
    for s, p in _thermal_draws(modes, system, n_real, seed, chunk_size):
        a, b = _noise_coefficients(modes, s, p)
        f = a @ cos_t.T + b @ sin_t.T
        f_base = f[:, base_idx]
        for j in range(taus.size):
            mean_acc[j].update_batch(f[:, tau_idx[j]])
            products = (f_base * f[:, lag_origin_idx[j]]).mean(axis=1)
            corr_acc[j].update_batch(products)
    return {
        "taus": taus,
        "mean": [acc.estimate() for acc in mean_acc],
        "autocorr": [acc.estimate() for acc in corr_acc],
    }


def gle_ensemble_moments(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                         n_real: int, seed: int, x0: float = 0.0,
                         chunk_size: int = 2048) -> EnsembleResult:
    """Ensemble moments of the memory dynamics at the final grid time.

    Starts every realization at (x0, 0) with bath modes drawn from the
    displaced thermal state; reports <x^2> and <v^2> at t = n_steps * dt,
    where each realization is propagated exactly, so any dt is allowed.
    """
    draws = _thermal_draws(modes, system, n_real, seed, chunk_size)
    normal_modes = _NormalModes(modes, system)
    acc_x2 = MomentAccumulator()
    acc_v2 = MomentAccumulator()
    for s, p in draws:
        x, v = normal_modes.propagate(grid.times[-1:], x0, 0.0, s, p)
        acc_x2.update_batch(x[0] ** 2)
        acc_v2.update_batch(v[0] ** 2)
    return EnsembleResult({"x2": acc_x2.estimate(), "v2": acc_v2.estimate()}, n_real, seed,
                          meta={"dt": grid.dt, "n_steps": grid.n_steps, "x0": float(x0),
                                "n_modes": modes.count})


def gle_moments_exact(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                      x0: float = 0.0):
    """Exact (<x^2>, <v^2>) at the final grid time of the ensemble sampled
    by :func:`gle_ensemble_moments`, without sampling error.

    x(T) and v(T) are linear in the 2N independent normals of a
    realization, so each moment is the squared mean response plus the
    squared responses to one standard deviation of every normal.
    """
    sd_s, sd_p = np.sqrt(thermal_variances(modes, system))
    zero = np.zeros((modes.count, modes.count))
    propagate = _NormalModes(modes, system).propagate
    mean = propagate(grid.times[-1:], x0, 0.0, zero[:1], zero[:1])
    spread = propagate(grid.times[-1:], 0.0, 0.0, np.vstack((np.diag(sd_s), zero)),
                       np.vstack((zero, np.diag(sd_p))))
    return tuple(float(m[0, 0] ** 2 + np.sum(d ** 2)) for m, d in zip(mean, spread))


def sample_trajectories(modes: ModeSet, system: SystemSpec, grid: TrajectoryGrid,
                        n_traj: int, seed: int, x0: float = 0.0):
    """(times, x, v, f) of the first ``n_traj`` realizations of
    :func:`gle_ensemble_moments` on ``grid.times``.

    Arrays are (n_steps + 1, n_traj); f is each realization's noise force.
    """
    grid.check_resolves(modes)
    (s, p), = _thermal_draws(modes, system, n_traj, seed, n_traj)
    x, v = _NormalModes(modes, system).propagate(grid.times, x0, 0.0, s, p)
    a, b = _noise_coefficients(modes, s, p)
    phases = np.multiply.outer(grid.times, modes.omega)
    return grid.times, x, v, np.cos(phases) @ a.T + np.sin(phases) @ b.T
