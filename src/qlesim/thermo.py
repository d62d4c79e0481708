"""Weak-coupling equilibrium thermodynamics of the reduced oscillator.

In the weak-coupling limit the reduced partition function factorizes to
the bare oscillator's, Z = [2 sinh(beta hbar omega0 / 2)]^-1, whose mean
energy reproduces the fluctuation-dissipation channel energies.  The
exact reduced partition function at arbitrary coupling (a ratio of traces
over system plus bath) requires path-integral machinery and is out of
scope here; these closed forms are the object it degenerates to as the
coupling vanishes.
"""

from __future__ import annotations

import math

from .bath import SystemSpec
from .errors import DomainError
from .quadrature import coth

__all__ = ["partition_weak", "mean_energy_weak", "free_particle_kinetic"]


def partition_weak(beta: float, omega0: float, hbar: float = 1.0) -> float:
    """Weak-coupling reduced partition function [2 sinh(beta hbar w0/2)]^-1."""
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not hbar > 0:
        raise DomainError("hbar must be positive")
    if omega0 == 0:
        raise DomainError("omega0 = 0 has no oscillator partition function; "
                          "use free_particle_kinetic")
    if omega0 < 0:
        raise DomainError("omega0 must be nonnegative")
    x = 0.5 * beta * hbar * omega0
    if x > 350.0:
        # sinh overflows; the ground state dominates
        return math.exp(-x)
    return 1.0 / (2.0 * math.sinh(x))


def mean_energy_weak(beta: float, omega0: float, hbar: float = 1.0) -> float:
    """Mean energy -d(ln Z)/d(beta) = (hbar w0/2) coth(beta hbar w0/2)."""
    if not beta > 0:
        raise DomainError("beta must be positive")
    if not hbar > 0 or not omega0 > 0:
        raise DomainError("hbar and omega0 must be positive")
    return 0.5 * hbar * omega0 * float(coth(0.5 * beta * hbar * omega0))


def free_particle_kinetic(system: SystemSpec) -> float:
    """Weak-coupling mean kinetic energy of the free particle, kB T / 2.

    Classical in form and independent of hbar: the weak-coupling
    partition function is the free classical one, so Planck's constant
    drops out of the energy entirely.
    """
    return 0.5 * system.kB * system.temperature

