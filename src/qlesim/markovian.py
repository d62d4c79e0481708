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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import SystemSpec
from .ensemble import EnsembleResult
from .errors import DomainError
from .sde import run_ensemble, sample_paths

__all__ = [
    "MarkovParams",
    "CharRoots",
    "noise_intensity",
    "noise_intensity_classical",
    "char_roots",
    "stationary_moments_analytic",
    "stationary_double_integral",
    "greens_solution_kernel",
    "simulate_sde",
    "sample_trajectories",
]

# relative discriminant size below which the critical-damping limit form is used
_CRITICAL_TOL = 1e-12


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
class CharRoots:
    """Characteristic roots of x'' + gamma x' + omega0^2 x = 0."""

    omega_plus: complex
    omega_minus: complex

    def __post_init__(self):
        s = self.omega_plus + self.omega_minus
        p = self.omega_plus * self.omega_minus
        gamma = -s.real
        w0sq = p.real
        if gamma <= 0 or w0sq <= 0:
            raise DomainError("roots must describe a damped oscillator")
        if abs(s.imag) > 1e-12 * abs(gamma) or abs(p.imag) > 1e-12 * abs(w0sq):
            raise DomainError("root sum and product must be real")


def char_roots(gamma: float, omega0: float) -> CharRoots:
    """Roots -gamma/2 +/- sqrt(gamma^2 - 4 omega0^2)/2, computed stably.

    Underdamped systems get a conjugate pair; overdamped roots use the
    product identity to avoid cancellation in the slow root.
    """
    if not gamma > 0 or not omega0 > 0:
        raise DomainError("gamma and omega0 must be positive")
    disc = gamma * gamma - 4.0 * omega0 * omega0
    if disc < 0:
        wd = 0.5 * math.sqrt(-disc)
        return CharRoots(complex(-0.5 * gamma, wd), complex(-0.5 * gamma, -wd))
    root = math.sqrt(disc)
    slow = -2.0 * omega0 * omega0 / (gamma + root)
    fast = -0.5 * (gamma + root)
    return CharRoots(complex(slow, 0.0), complex(fast, 0.0))


@dataclass(frozen=True)
class MarkovParams:
    """Oscillator and damping; the Markovian noise intensity follows from them."""

    system: SystemSpec
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0 or not self.system.omega0 > 0:
            raise DomainError("gamma and omega0 must be positive")

    @classmethod
    def from_system(cls, system: SystemSpec, gamma: float) -> "MarkovParams":
        return cls(system=system, gamma=gamma)

    @property
    def noise(self) -> float:
        """Fluctuation-dissipation intensity, :func:`noise_intensity`."""
        return noise_intensity(self.system, self.gamma)

    @property
    def underdamped(self) -> bool:
        return self.gamma < 2.0 * self.system.omega0

    def roots(self) -> CharRoots:
        return char_roots(self.gamma, self.system.omega0)


def stationary_moments_analytic(params: MarkovParams):
    """Closed-form stationary (<x^2>, <v^2>) of the Markovian SDE.

    Evaluating the Green's-function double integral with the symmetric
    correlation (Gn/2) delta collapses it to Gn/(4 m^2 gamma omega0^2) and
    Gn/(4 m^2 gamma), i.e.

        <x^2> = hbar/(2 m omega0) coth(...),  <v^2> = hbar omega0/(2 m) coth(...)

    independent of gamma, matching the weak-coupling energies.
    """
    sys_ = params.system
    x2 = params.noise / (4.0 * sys_.mass**2 * params.gamma * sys_.omega0**2)
    v2 = params.noise / (4.0 * sys_.mass**2 * params.gamma)
    return x2, v2


def stationary_double_integral(params: MarkovParams, which: str = "x2",
                               horizon_factor: float = 200.0) -> float:
    """Brute-force quadrature of the stationary-moment double integral.

    The delta collapses one time integral; the survivor
    (Gn/2m^2) * Int_0^T K(s)^2 ds (or K'(s)^2 for the velocity) is summed
    numerically out to T = horizon_factor / gamma.  Used to audit the
    closed forms and the noise-convention factor of two.
    """
    from scipy import integrate

    roots = params.roots()
    horizon = horizon_factor / params.gamma
    if which == "x2":
        f = lambda s: greens_solution_kernel(roots, s) ** 2
    elif which == "v2":
        f = lambda s: _greens_kernel_deriv(roots, s) ** 2
    else:
        raise DomainError("which must be 'x2' or 'v2'")
    val, _ = integrate.quad(f, 0.0, horizon, limit=2000, epsabs=1e-13, epsrel=1e-11)
    return params.noise / (2.0 * params.system.mass**2) * val


def greens_solution_kernel(roots: CharRoots, t):
    """Impulse response [exp(w+ t) - exp(w- t)] / (w+ - w-), real-valued.

    Underdamped pairs reduce to exp(-gamma t/2) sin(wd t)/wd; the critical
    double root degenerates to t exp(-gamma t/2).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")
    wp, wm = roots.omega_plus, roots.omega_minus
    gamma = -(wp + wm).real
    diff = wp - wm
    if abs(diff) < _CRITICAL_TOL * gamma:
        out = t * np.exp(-0.5 * gamma * t)
        return out if out.ndim else float(out)
    if wp.imag != 0.0:
        wd = wp.imag
        out = np.exp(-0.5 * gamma * t) * np.sin(wd * t) / wd
        return out if out.ndim else float(out)
    out = (np.exp(wp.real * t) - np.exp(wm.real * t)) / diff.real
    return out if out.ndim else float(out)


def _greens_kernel_deriv(roots: CharRoots, t):
    """d/dt of the impulse response (velocity channel of the same kick)."""
    t = np.asarray(t, dtype=float)
    wp, wm = roots.omega_plus, roots.omega_minus
    gamma = -(wp + wm).real
    diff = wp - wm
    if abs(diff) < _CRITICAL_TOL * gamma:
        out = (1.0 - 0.5 * gamma * t) * np.exp(-0.5 * gamma * t)
        return out if out.ndim else float(out)
    out = np.real((wp * np.exp(wp * t) - wm * np.exp(wm * t)) / diff)
    return out if out.ndim else float(out)


def _linear_system(params: MarkovParams):
    """Drift and diffusion of the (x, v) pair; noise drives the velocity."""
    sys_ = params.system
    drift = np.array([[0.0, 1.0], [-sys_.omega0 * sys_.omega0, -params.gamma]])
    diffusion = np.array([[0.0, 0.0], [0.0, params.noise / (2.0 * sys_.mass**2)]])
    return drift, diffusion


def simulate_sde(params: MarkovParams, dt: float, n_steps: int, n_traj: int,
                 seed: int, method: str = "exact", chunk_size: int = 2048) -> EnsembleResult:
    """Monte Carlo stationary moments of the Markovian oscillator SDE.

    Noise enters the velocity with per-step variance consistent with the
    symmetric intensity Gn/2.  With ``method='exact'`` the one-step update
    is the exact Gaussian transition, so any step size is unbiased and the
    step doubles as the decorrelation stride; ``method='euler'`` is the
    O(dt) cross-check and requires dt * omega0 <= 0.01.

    Each trajectory starts from the stationary covariance and contributes
    the time-average of ``n_steps`` samples, with the streams and chunking
    of :func:`qlesim.sde.run_ensemble`; standard errors are computed across
    trajectories.

    Returns an :class:`EnsembleResult` with moments ``x2`` and ``v2``.
    """
    return run_ensemble(
        *_linear_system(params), dt, n_steps, n_traj, seed,
        {"x2": lambda prev, s: s[:, 0] ** 2, "v2": lambda prev, s: s[:, 1] ** 2},
        chunk_size, method, {"gamma": params.gamma})


def sample_trajectories(params: MarkovParams, dt: float, n_steps: int,
                        n_traj: int, seed: int, method: str = "exact"):
    """Record full trajectories for the first ``n_traj`` RNG streams.

    Returns (times, x, v, force) with x, v of shape (n_steps + 1, n_traj);
    ``force`` is the step-averaged stochastic force m * dv_noise / dt
    driving each step (zero in the final slot).  Trajectory i is trajectory
    i of :func:`simulate_sde`: its block's (seed, block) stream is drawn whole.
    """
    states, kicks = sample_paths(*_linear_system(params), dt, n_steps, n_traj, seed, method)
    force = params.system.mass * kicks[:, :, 1] / dt
    return dt * np.arange(n_steps + 1), states[:, :, 0], states[:, :, 1], force
