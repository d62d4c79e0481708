"""Markovian (delta-correlated noise) limit of the damped oscillator.

In the weak-coupling Markov limit the equation of motion reduces to

    x'' + gamma x' + omega0^2 x = f(t)/m

with <{f(t), f(t')}> = Gn * delta(t - t') and the noise intensity
Gn = 2 m gamma hbar omega0 coth(hbar omega0 / 2 kB T).

Every simulator and closed form in this module uses the symmetric
correlation S(t - t') = (1/2) <{f, f'}> = (Gn/2) delta(t - t').  This is
the unique convention under which the stationary second moments of the
SDE coincide with the weak-coupling fluctuation-dissipation values
hbar/(2 m omega0) coth and hbar omega0/(2 m) coth; see
:func:`stationary_double_integral` for the quadrature that pins the
factor of two; it is the only function here that uses scipy.

The (x, v) pair is a stable 2x2 linear SDE.  Its simulation steps with the
one exact Gaussian transition of :mod:`qlesim.sde`, and its impulse
response is the (0, 1) entry of the same closed-form e^{A t}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import SystemSpec
from .errors import DomainError
from .sde import propagator_coefficients, run_ensemble, sample_paths, stationary_covariance

__all__ = [
    "MarkovParams",
    "noise_intensity",
    "noise_intensity_classical",
    "stationary_moments_analytic",
    "stationary_double_integral",
    "simulate_sde",
    "sample_trajectories",
]


def noise_intensity(system: SystemSpec, gamma: float) -> float:
    """Markovian noise intensity 2 m gamma hbar omega0 coth(hbar omega0 / 2 kB T)."""
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    if not system.omega0 > 0:
        raise DomainError("noise intensity needs omega0 > 0")
    return (2.0 * system.mass * gamma * system.hbar * system.omega0
            * float(system.thermal_coth(system.omega0)))


def noise_intensity_classical(system: SystemSpec, gamma: float) -> float:
    """hbar -> 0 limit of the noise intensity, 4 m gamma kB T."""
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    return 4.0 * system.mass * gamma * system.kB * system.temperature


@dataclass(frozen=True)
class MarkovParams:
    """Oscillator and damping; the Markovian and the two RWA noise intensities follow from them."""

    system: SystemSpec
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0 or not self.system.omega0 > 0:
            raise DomainError("gamma and omega0 must be positive")

    @property
    def noise(self) -> float:
        """Fluctuation-dissipation intensity, :func:`noise_intensity`."""
        return noise_intensity(self.system, self.gamma)


def stationary_moments_analytic(params: MarkovParams):
    """Closed-form stationary (<x^2>, <v^2>) of the Markovian SDE.

    Evaluating the Green's-function double integral with the symmetric
    correlation (Gn/2) delta collapses it to Gn/(4 m^2 gamma omega0^2) and
    Gn/(4 m^2 gamma), i.e.

        <x^2> = hbar/(2 m omega0) coth(...),  <v^2> = hbar omega0/(2 m) coth(...)

    independent of gamma, matching the weak-coupling energies.
    """
    cov = stationary_covariance(*_linear_system(params))
    return float(cov[0, 0]), float(cov[1, 1])


def stationary_double_integral(params: MarkovParams, which: str = "x2") -> float:
    """Brute-force quadrature of the stationary-moment double integral.

    The delta collapses one time integral; the survivor (Gn/2m^2) * Int_0^T K(s)^2 ds
    (or K'(s)^2 for the velocity) is summed numerically to T = 100 / kappa, kappa the
    slow decay rate of K, with a panel break at 100 / (gamma - kappa).  The impulse
    response K(s) = c1(s) and its derivative K'(s) = c0(s) - (gamma/2) c1(s) are entries
    of the propagator e^{A s} = c0 I + c1 (A + gamma/2 I) of
    :func:`qlesim.sde.propagator_coefficients`.  Used to audit the closed
    forms and the noise-convention factor of two.
    """
    from scipy import integrate

    gamma, w0sq = params.gamma, params.system.omega0 * params.system.omega0
    if which not in ("x2", "v2"):
        raise DomainError("which must be 'x2' or 'v2'")

    def f(s):
        c0, c1 = propagator_coefficients(-gamma, w0sq, s)
        return (c1 if which == "x2" else c0 - 0.5 * gamma * c1) ** 2

    half = 0.5 * gamma  # kappa: half, overdamped w0^2 / (half + sqrt(half^2 - w0^2))
    slow = half if half * half <= w0sq else w0sq / (half + (half * half - w0sq) ** 0.5)
    edges = sorted({0.0, 100.0 / (gamma - slow), 100.0 / slow})
    val = sum(integrate.quad(f, a, b, limit=2000, epsabs=1e-13, epsrel=1e-11)[0]
              for a, b in zip(edges, edges[1:]))
    return params.noise / (2.0 * params.system.mass**2) * val


def _linear_system(params: MarkovParams):
    """Drift and diffusion of the (x, v) pair; noise drives the velocity."""
    sys_ = params.system
    drift = np.array([[0.0, 1.0], [-sys_.omega0 * sys_.omega0, -params.gamma]])
    diffusion = np.array([[0.0, 0.0], [0.0, params.noise / (2.0 * sys_.mass**2)]])
    return drift, diffusion


def simulate_sde(params: MarkovParams, dt: float, n_steps: int, n_traj: int,
                 seed: int, chunk_size: int = 2048) -> dict:
    """Monte Carlo stationary moments of the Markovian oscillator SDE.

    Noise enters the velocity with per-step variance consistent with the
    symmetric intensity Gn/2.  The one-step update is the exact Gaussian
    transition, so any step size is unbiased and the step doubles as the
    decorrelation stride.

    Each trajectory starts from the stationary covariance and contributes
    the time-average of ``n_steps`` samples, with the streams and chunking
    of :func:`qlesim.sde.run_ensemble`; standard errors are computed across
    trajectories.

    Returns the {name: MomentEstimate} dict of ``x2`` and ``v2``.
    """
    return run_ensemble(
        *_linear_system(params), dt, n_steps, n_traj, seed,
        {"x2": lambda prev, s, out: np.square(s[:, 0], out=out),
         "v2": lambda prev, s, out: np.square(s[:, 1], out=out)}, chunk_size)


def sample_trajectories(params: MarkovParams, dt: float, n_steps: int, n_traj: int, seed: int):
    """Record full trajectories for the first ``n_traj`` RNG streams.

    Returns (times, x, v, force) with x, v of shape (n_steps + 1, n_traj);
    ``force`` is the step-averaged stochastic force m * dv_noise / dt
    driving each step (zero in the final slot).  Trajectory i is trajectory
    i of :func:`simulate_sde`: its block's (seed, block) stream is drawn whole.
    """
    states, kicks = sample_paths(*_linear_system(params), dt, n_steps, n_traj, seed)
    force = params.system.mass * kicks[:, :, 1] / dt
    return dt * np.arange(n_steps + 1), states[:, :, 0], states[:, :, 1], force
