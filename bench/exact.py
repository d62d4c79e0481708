"""Exact expectations for every value the benchmark checks.

Each function is derived here from the physics, with numpy and scipy
only, so that a check does not trust the code it checks.  The one
exception is the finite-bath noise correlation, which is a sum over the
modes that ``qlesim.bath.discretize_bath`` places; the mode placement is
the input of that row, not its answer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_discrete_lyapunov


def coth(x):
    return 1.0 / math.tanh(x)


class Oscillator:
    """Oscillator constants, natural units by default (as the CLI)."""

    def __init__(self, mass=1.0, omega0=1.0, temp=1.0, hbar=1.0, kb=1.0):
        self.mass, self.omega0, self.temp, self.hbar, self.kb = mass, omega0, temp, hbar, kb
        self.coth0 = coth(hbar * omega0 / (2.0 * kb * temp))

    def x2(self):
        """Stationary <x^2> of the weak-coupling FDT: hbar/(2 m w0) coth."""
        return self.hbar / (2.0 * self.mass * self.omega0) * self.coth0

    def v2(self):
        """Stationary <v^2>: hbar w0/(2 m) coth."""
        return self.hbar * self.omega0 / (2.0 * self.mass) * self.coth0

    def p2(self):
        """Stationary <p^2>: m hbar w0/2 coth."""
        return self.mass * self.hbar * self.omega0 / 2.0 * self.coth0

    def weak_correlation(self, tau):
        """(C_x, C_v) of the gamma -> 0+ limit at lag tau."""
        c = math.cos(self.omega0 * tau)
        return self.x2() * c, self.v2() * c

    def weak_energy(self):
        return 0.5 * self.hbar * self.omega0 * self.coth0

    def noise_intensity(self, gamma):
        """Markovian intensity 2 m gamma hbar w0 coth."""
        return 2.0 * self.mass * gamma * self.hbar * self.omega0 * self.coth0

    def noise_intensity_classical(self, gamma):
        return 4.0 * self.mass * gamma * self.kb * self.temp

    def rwa_ehrenfest(self, gamma, dt):
        """Mean square of the discrete RWA residual (x_{k+1}-x_k)/dt - p_k/m.

        The pair x' = -gamma x + p/m + f_x, p' = -gamma p - m w0^2 x + f_p
        with white-noise covariance rates I_x/2, I_p/2 is stepped exactly
        (Van Loan block exponential).  With propagator E, per-step noise
        covariance Q_dt and stationary covariance S = E S E^T + Q_dt, the
        residual is c.s_k + w_x/dt with c = row 0 of (E - I)/dt minus
        (0, 1/m), so its mean square is c S c^T + Q_dt[0, 0]/dt^2.
        """
        m, w0 = self.mass, self.omega0
        drift = np.array([[-gamma, 1.0 / m], [-m * w0 * w0, -gamma]])
        ix = 2.0 * gamma * self.hbar / (m * w0) * self.coth0
        ip = 2.0 * m * gamma * self.hbar * w0 * self.coth0
        rate = np.diag([ix / 2.0, ip / 2.0])
        block = np.zeros((4, 4))
        block[:2, :2] = drift
        block[:2, 2:] = rate
        block[2:, 2:] = -drift.T
        eb = expm(block * dt)
        prop = eb[:2, :2]
        q_dt = eb[:2, 2:] @ prop.T
        q_dt = 0.5 * (q_dt + q_dt.T)
        cov = solve_discrete_lyapunov(prop, q_dt)
        c = (prop - np.eye(2))[0] / dt - np.array([0.0, 1.0 / m])
        return float(c @ cov @ c + q_dt[0, 0] / dt**2)

    def ohmic_position_variance(self, gamma, n_terms=200_000):
        """<x^2> of the strict-Ohmic oscillator as a Matsubara sum.

        (kB T/m) sum_n 1/(w0^2 + nu_n^2 + |nu_n| gamma), nu_n = 2 pi n kB T/hbar
        (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)).  The terms
        beyond ``n_terms`` are added as the integral from n_terms + 1/2,
        whose error is of order n_terms^-3 relative.
        """
        w0sq = self.omega0**2
        nu1 = 2.0 * math.pi * self.kb * self.temp / self.hbar
        a, b = nu1 * nu1, nu1 * gamma
        disc = 4.0 * a * w0sq - b * b
        if not disc > 0:
            raise ValueError("Matsubara tail form needs gamma < 2 omega0")
        n = np.arange(1, n_terms + 1, dtype=float)
        head = math.fsum(1.0 / (a * n * n + b * n + w0sq))
        root = math.sqrt(disc)
        tail = 2.0 / root * math.atan(root / (2.0 * a * (n_terms + 0.5) + b))
        total = 1.0 / w0sq + 2.0 * (head + tail)
        return self.kb * self.temp / self.mass * total

    def ohmic_potential_energy(self, gamma):
        return self.mass * self.omega0**2 * self.ohmic_position_variance(gamma)


def finite_bath_noise_correlation(osc: Oscillator, omega, mass, coupling, tau):
    """Exact symmetric noise correlation of N sampled modes at lag tau.

    f(t) = sum_j c_j [s_j cos(w_j t) + p_j/(m_j w_j) sin(w_j t)] with
    independent thermal s_j, p_j gives sum_j c_j^2 var_s,j cos(w_j tau) for
    every time origin, because var_p,j/(m_j w_j)^2 = var_s,j.
    """
    omega = np.asarray(omega, dtype=float)
    var_s = osc.hbar / (2.0 * mass * omega) / np.tanh(osc.hbar * omega / (2.0 * osc.kb * osc.temp))
    return float(np.sum(np.asarray(coupling) ** 2 * var_s * np.cos(omega * tau)))


def pk_density(lam, damping):
    """(2/pi) L^2 G / ((1 - L^2)^2 + (L G)^2)."""
    lam = np.asarray(lam, dtype=float)
    return (2.0 / math.pi) * lam**2 * damping / ((1.0 - lam**2) ** 2 + (lam * damping) ** 2)


def pp_density(lam, damping):
    """(2/pi) G / ((1 - L^2)^2 + (L G)^2)."""
    lam = np.asarray(lam, dtype=float)
    return (2.0 / math.pi) * damping / ((1.0 - lam**2) ** 2 + (lam * damping) ** 2)
