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

The parameters and the symmetric-intensity convention are those of
:mod:`qlesim.markovian` (:class:`~qlesim.markovian.MarkovParams`;
white-noise covariance rate I/2 per channel).
"""

from __future__ import annotations

import warnings

import numpy as np

from .markovian import MarkovParams
from .sde import exact_discretization, run_ensemble, sample_paths, stationary_covariance

__all__ = [
    "rwa_stationary_analytic",
    "drift_matrix",
    "ehrenfest_residual_exact",
    "simulate_rwa",
    "sample_trajectories",
]

# gamma/omega0 above which the weak-coupling premise of the RWA is dubious
_WEAK_COUPLING_RATIO = 0.1


def drift_matrix(params: MarkovParams) -> np.ndarray:
    """Drift of the (x, p) pair; its eigenvalues are -gamma +/- i omega0."""
    m, w0 = params.system.mass, params.system.omega0
    return np.array([[-params.gamma, 1.0 / m], [-m * w0 * w0, -params.gamma]])


def _diffusion_matrix(params: MarkovParams) -> np.ndarray:
    """diag(I_x, I_p) / 2: I_p is the Markovian intensity, I_x = I_p / (m w0)^2."""
    intensity_p = params.noise
    intensity_x = intensity_p / (params.system.mass * params.system.omega0) ** 2
    return np.diag([intensity_x / 2.0, intensity_p / 2.0])


def rwa_stationary_analytic(params: MarkovParams):
    """Exact stationary (<x^2>, <p^2>), the diagonal of the closed-form
    Lyapunov solution :func:`qlesim.sde.stationary_covariance`.

    The prescribed intensities balance the two channels so precisely that
    the solution is gamma-independent: both channel energies equal the
    weak-coupling value (hbar w0 / 2) coth(...) for every gamma, with zero
    stationary x-p correlation.
    """
    cov = stationary_covariance(drift_matrix(params), _diffusion_matrix(params))
    return float(cov[0, 0]), float(cov[1, 1])


def ehrenfest_residual_exact(params: MarkovParams, dt: float) -> float:
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
    return float(c @ stationary_covariance(drift, diffusion) @ c + q_dt[0, 0] / (dt * dt))


def simulate_rwa(params: MarkovParams, dt: float, n_steps: int, n_traj: int,
                 seed: int, chunk_size: int = 2048) -> dict:
    """Monte Carlo moments of the RWA Langevin pair.

    Same exact Gaussian step, start and streams as
    :func:`qlesim.markovian.simulate_sde`, so any step size is unbiased.
    Reported moments: ``x2``, ``p2``, the symmetrized cross moment ``xp``,
    and ``ehrenfest``, the mean square of the discrete residual
    (x_{k+1} - x_k)/dt - p_k/m.  The
    residual is driven by the white x-noise, so its magnitude grows with
    the sampling bandwidth; its exact stationary value for the exact
    update is :func:`ehrenfest_residual_exact`, about I_x/(2 dt) for small
    dt.  Returns the {name: MomentEstimate} dict of the four.

    Outside the narrowband regime (gamma > omega0/10) the approximation is
    unjustified, and simulation warns.
    """
    if params.gamma > _WEAK_COUPLING_RATIO * params.system.omega0:
        warnings.warn("gamma exceeds omega0/10; RWA dynamics is physically dubious here",
                      stacklevel=2)

    def ehrenfest(prev, s, out):  # ((x_{k+1} - x_k)/dt - p_k/m)^2, one temporary
        np.divide(np.subtract(s[:, 0], prev[:, 0], out=out), dt, out=out)
        np.square(np.subtract(out, prev[:, 1] / params.system.mass, out=out), out=out)

    observables = {
        "x2": lambda prev, s, out: np.square(s[:, 0], out=out),
        "p2": lambda prev, s, out: np.square(s[:, 1], out=out),
        "xp": lambda prev, s, out: np.multiply(s[:, 0], s[:, 1], out=out),
        "ehrenfest": ehrenfest,
    }
    return run_ensemble(drift_matrix(params), _diffusion_matrix(params), dt, n_steps, n_traj,
                        seed, observables, chunk_size)


def sample_trajectories(params: MarkovParams, dt: float, n_steps: int, n_traj: int, seed: int):
    """(times, x, p, f_x, f_p) of the first ``n_traj`` trajectories of :func:`simulate_rwa`.

    Arrays are (n_steps + 1, n_traj); f_x, f_p are each channel's noise
    kick per step over dt, zero in the final slot.
    """
    states, kicks = sample_paths(drift_matrix(params), _diffusion_matrix(params),
                                 dt, n_steps, n_traj, seed)
    return (dt * np.arange(n_steps + 1), states[:, :, 0], states[:, :, 1],
            kicks[:, :, 0] / dt, kicks[:, :, 1] / dt)
