"""Rotating-wave-approximation sector of the damped oscillator.

Dropping the counter-rotating terms turns half of the coordinate
coupling into momentum coupling and produces a Langevin pair in which
position and momentum each acquire their own drag and noise:

    x' = -gamma x + p/m + f_x,    p' = -gamma p - m w0^2 x + f_p

with independent noises of intensities I_x = (2 gamma hbar / m w0) coth
and I_p = 2 m gamma hbar w0 coth (no cross-correlation is prescribed, and
none is assumed).  The position equation no longer reads x' = p/m, which
is the RWA's Ehrenfest anomaly; this module simulates the pair and
reports the anomaly.

The drift has eigenvalues -gamma +/- i w0, so the pair is a stable 2x2
linear SDE: its stationary covariance, its exact step and the exact mean
square of the discrete anomaly all follow from the closed forms of
:mod:`qlesim.sde`, with no matrix-equation solver.

The same symmetric-intensity convention as :mod:`qlesim.markovian`
applies (white-noise covariance rate I/2 per channel).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import SystemSpec
from .ensemble import EnsembleResult
from .errors import DomainError
from .markovian import noise_intensity
from .sde import exact_discretization, run_ensemble, sample_paths, stationary_covariance

__all__ = [
    "RwaParams",
    "rwa_coupling",
    "rwa_hamiltonian_split",
    "rwa_stationary_analytic",
    "drift_matrix",
    "ehrenfest_residual_exact",
    "simulate_rwa",
    "sample_trajectories",
]

# gamma/omega0 above which the weak-coupling premise of the RWA is dubious
_WEAK_COUPLING_RATIO = 0.1


@dataclass(frozen=True)
class RwaParams:
    """Oscillator and damping; the two RWA noise intensities follow from them."""

    system: SystemSpec
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0 or not self.system.omega0 > 0:
            raise DomainError("gamma and omega0 must be positive")

    @classmethod
    def from_system(cls, system: SystemSpec, gamma: float) -> "RwaParams":
        return cls(system=system, gamma=gamma)

    @property
    def intensity_x(self) -> float:
        """I_x = I_p / (m w0)^2 = (2 gamma hbar / m w0) coth(hbar w0 / 2 kB T)."""
        return self.intensity_p / (self.system.mass * self.system.omega0) ** 2

    @property
    def intensity_p(self) -> float:
        """I_p = 2 m gamma hbar w0 coth(hbar w0 / 2 kB T), the Markovian intensity."""
        return noise_intensity(self.system, self.gamma)

    @property
    def narrowband(self) -> bool:
        """True when gamma is small enough for the RWA to be trustworthy."""
        return self.gamma <= _WEAK_COUPLING_RATIO * self.system.omega0


def rwa_coupling(c_j, system_mass, mode_mass, omega0, omega_j, hbar: float = 1.0):
    """Rotating-frame coupling hbar c_j / (2 sqrt(m m_j w0 w_j))."""
    if min(system_mass, mode_mass, omega0) <= 0:
        raise DomainError("masses and omega0 must be positive")
    omega_j = np.asarray(omega_j, dtype=float)
    if np.any(omega_j <= 0):
        raise DomainError("mode frequencies must be positive")
    out = hbar * np.asarray(c_j, dtype=float) / (
        2.0 * np.sqrt(system_mass * mode_mass * omega0 * omega_j)
    )
    return out if np.ndim(out) else float(out)


def rwa_hamiltonian_split(c_j, system_mass, mode_mass, omega0, omega_j):
    """Coupling coefficients after the RWA, written in oscillator variables.

    Returns (position_coefficient, momentum_coefficient): the coordinate
    coupling keeps half its strength, c_j/2, and the other half reappears
    as a momentum-momentum coupling c_j / (2 m w0 m_j w_j).  Their ratio
    is 1 / (m m_j w0 w_j).
    """
    if min(system_mass, mode_mass, omega0) <= 0:
        raise DomainError("masses and omega0 must be positive")
    omega_j = np.asarray(omega_j, dtype=float)
    if np.any(omega_j <= 0):
        raise DomainError("mode frequencies must be positive")
    c_j = np.asarray(c_j, dtype=float)
    pos = c_j / 2.0
    mom = c_j / (2.0 * system_mass * omega0 * mode_mass * omega_j)
    if np.ndim(pos):
        return pos, mom
    return float(pos), float(mom)


def drift_matrix(params: RwaParams) -> np.ndarray:
    """Drift of the (x, p) pair; its eigenvalues are -gamma +/- i omega0."""
    m, w0 = params.system.mass, params.system.omega0
    return np.array([[-params.gamma, 1.0 / m], [-m * w0 * w0, -params.gamma]])


def _diffusion_matrix(params: RwaParams) -> np.ndarray:
    return np.diag([params.intensity_x / 2.0, params.intensity_p / 2.0])


def rwa_stationary_analytic(params: RwaParams):
    """Exact stationary (<x^2>, <p^2>), the diagonal of the closed-form
    Lyapunov solution :func:`qlesim.sde.stationary_covariance`.

    The prescribed intensities balance the two channels so precisely that
    the solution is gamma-independent: both channel energies equal the
    weak-coupling value (hbar w0 / 2) coth(...) for every gamma, with zero
    stationary x-p correlation.
    """
    cov = stationary_covariance(drift_matrix(params), _diffusion_matrix(params))
    return float(cov[0, 0]), float(cov[1, 1])


def ehrenfest_residual_exact(params: RwaParams, dt: float) -> float:
    """Stationary mean square of the residual (x_{k+1} - x_k)/dt - p_k/m.

    Under the exact update S_{k+1} = E S_k + w_k the residual is
    c S_k + w_k[0]/dt, c = row 0 of (E - I)/dt minus (0, 1/m), so its mean
    square is c Sigma c^T + Q_dt[0, 0]/dt^2, where the exact chain's
    stationary covariance is the continuous one, Sigma.
    It tends to I_x/(2 dt) as dt -> 0.
    """
    drift, diffusion = drift_matrix(params), _diffusion_matrix(params)
    prop, q_dt = exact_discretization(drift, diffusion, dt)
    c = (prop - np.eye(2))[0] / dt - np.array([0.0, 1.0 / params.system.mass])
    return float(c @ stationary_covariance(drift, diffusion) @ c + q_dt[0, 0] / dt**2)


def simulate_rwa(params: RwaParams, dt: float, n_steps: int, n_traj: int,
                 seed: int, method: str = "exact", chunk_size: int = 2048) -> EnsembleResult:
    """Monte Carlo moments of the RWA Langevin pair.

    Same stepping, start and streams as :func:`qlesim.markovian.simulate_sde`.
    Reported moments: ``x2``, ``p2``, the symmetrized cross moment ``xp``,
    and ``ehrenfest``, the mean square of the discrete residual
    (x_{k+1} - x_k)/dt - p_k/m.  The
    residual is driven by the white x-noise, so its magnitude grows with
    the sampling bandwidth; its exact stationary value for the exact
    update is :func:`ehrenfest_residual_exact`, about I_x/(2 dt) for small
    dt.

    Outside the narrowband regime (gamma > omega0/10) the approximation is
    unjustified, and simulation warns.
    """
    if not params.narrowband:
        warnings.warn("gamma exceeds omega0/10; RWA dynamics is physically dubious here",
                      stacklevel=2)
    m = params.system.mass
    observables = {
        "x2": lambda prev, s: s[:, 0] ** 2,
        "p2": lambda prev, s: s[:, 1] ** 2,
        "xp": lambda prev, s: s[:, 0] * s[:, 1],
        "ehrenfest": lambda prev, s: ((s[:, 0] - prev[:, 0]) / dt - prev[:, 1] / m) ** 2,
    }
    return run_ensemble(drift_matrix(params), _diffusion_matrix(params), dt, n_steps, n_traj,
                        seed, observables, chunk_size, method, gamma=params.gamma,
                        noise_bandwidth=1.0 / dt)


def sample_trajectories(params: RwaParams, dt: float, n_steps: int, n_traj: int,
                        seed: int, method: str = "exact"):
    """(times, x, p, f_x, f_p) of the first ``n_traj`` trajectories of :func:`simulate_rwa`.

    Arrays are (n_steps + 1, n_traj); f_x, f_p are each channel's noise
    kick per step over dt, zero in the final slot.
    """
    states, kicks = sample_paths(drift_matrix(params), _diffusion_matrix(params),
                                 dt, n_steps, n_traj, seed, method)
    return (dt * np.arange(n_steps + 1), states[:, :, 0], states[:, :, 1],
            kicks[:, :, 0] / dt, kicks[:, :, 1] / dt)
