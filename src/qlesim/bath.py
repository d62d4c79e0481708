"""Heat-bath models for the damped quantum oscillator.

Two continuum baths are supported:

* ``STRICT_OHMIC``: delta-function friction kernel, J(omega) = m*gamma*omega.
  The kernel is distributional, so every consumer handles this case through
  the damping rate directly rather than integrating the kernel numerically.
* ``CUTOFF_OHMIC``: unit-mass modes with density of states
  g(omega) = 3*omega^2 / Omega^3 below a sharp cutoff Omega, giving the sinc
  friction kernel.  Their one coupling is derived from gamma, Omega and the
  system mass (:attr:`BathSpec.coupling`).

A finite bath is a :class:`ModeSet` of explicit oscillators, built by
:func:`discretize_bath` from a cutoff-Ohmic spec for microscopic simulation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedBathError
from .quadrature import coth

__all__ = [
    "BathKind",
    "ModeSet",
    "SystemSpec",
    "BathSpec",
    "friction_kernel",
    "discretize_bath",
]

# sin(x)/x switches to its Taylor series below this argument
_SINC_SERIES_CUT = 1e-8


class BathKind(enum.Enum):
    STRICT_OHMIC = "strict_ohmic"
    CUTOFF_OHMIC = "cutoff_ohmic"


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Explicit bath oscillators: frequencies, masses and couplings.

    All arrays have the same length N >= 1 and strictly positive entries
    (couplings may have either sign, but must be finite).
    """

    omega: np.ndarray
    mass: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        for name in ("omega", "mass", "coupling"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        n = self.omega.size
        if n < 1:
            raise DomainError("ModeSet needs at least one mode")
        if self.mass.size != n or self.coupling.size != n:
            raise DomainError("ModeSet arrays must have equal length")
        if not np.all(np.isfinite(self.omega)) or np.any(self.omega <= 0):
            raise DomainError("mode frequencies must be positive and finite")
        if not np.all(np.isfinite(self.mass)) or np.any(self.mass <= 0):
            raise DomainError("mode masses must be positive and finite")
        if not np.all(np.isfinite(self.coupling)):
            raise DomainError("mode couplings must be finite")

    @property
    def count(self) -> int:
        return int(self.omega.size)

    def kernel_weights(self) -> np.ndarray:
        """Per-mode kernel amplitudes c_j^2 / (m_j * omega_j^2)."""
        return self.coupling**2 / (self.mass * self.omega**2)


@dataclass(frozen=True)
class SystemSpec:
    """Oscillator and unit constants.

    ``omega0 = 0`` selects the free-particle limit.  Natural units
    (hbar = kB = 1) are the default; pass explicit constants to work in
    any other unit system.
    """

    mass: float = 1.0
    omega0: float = 1.0
    temperature: float = 1.0
    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise DomainError("mass must be positive")
        if self.omega0 < 0:
            raise DomainError("omega0 must be nonnegative")
        if not self.temperature > 0:
            raise DomainError("temperature must be positive")
        if not self.hbar > 0 or not self.kB > 0:
            raise DomainError("hbar and kB must be positive")

    @property
    def thermal_coth_scale(self) -> float:
        """The coefficient a in coth(a * omega), a = hbar / (2 kB T)."""
        return self.hbar / (2.0 * self.kB * self.temperature)

    def thermal_coth(self, omega):
        """coth(hbar * omega / (2 kB T)), vectorized and overflow-safe."""
        return coth(self.thermal_coth_scale * np.asarray(omega, dtype=float))


@dataclass(frozen=True, eq=False)
class BathSpec:
    """A bath model, the damping rate gamma it produces and the system mass.

    A ``CUTOFF_OHMIC`` bath is made of unit-mass modes below the cutoff
    Omega; their coupling :attr:`coupling` is derived from gamma, Omega and
    the system mass, so every microscopic quantity follows from the three.
    """

    kind: BathKind
    gamma: float
    cutoff: float | None = None
    system_mass: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise DomainError("gamma must be positive")
        if self.kind is BathKind.CUTOFF_OHMIC:
            if self.cutoff is None or not self.cutoff > 0 or not self.system_mass > 0:
                raise DomainError("cutoff-Ohmic bath requires a positive cutoff and system mass")
            if self.coupling == math.inf:
                raise DomainError("the cutoff-Ohmic coupling is not finite")

    @property
    def coupling(self) -> float:
        """Coupling c = sqrt(2 m Omega^3 gamma / (3 pi)) of the unit-mass modes.

        It scales as cutoff^(3/2), which is exactly the scaling that keeps
        gamma = 3 pi c^2 / (2 m Omega^3) finite as the cutoff grows.
        """
        try:
            return math.sqrt(2.0 * self.system_mass * self.cutoff**3 * self.gamma / (3.0 * math.pi))
        except OverflowError:
            return math.inf

    def check_system(self, system: SystemSpec):
        """Require a cutoff-Ohmic bath's system mass to be ``system.mass``:
        its coupling, and so its damping, is derived from that mass."""
        if self.kind is BathKind.CUTOFF_OHMIC and self.system_mass != system.mass:
            raise DomainError(f"the cutoff-Ohmic bath has system mass {self.system_mass!r}, "
                              f"the system {system.mass!r}")

    @classmethod
    def strict_ohmic(cls, gamma: float) -> "BathSpec":
        """Memoryless Ohmic bath: mu(t) = 2*m*gamma*delta(t)."""
        return cls(kind=BathKind.STRICT_OHMIC, gamma=gamma)

    @classmethod
    def cutoff_ohmic(cls, gamma: float, cutoff: float, system_mass: float = 1.0) -> "BathSpec":
        """Cutoff-Ohmic bath of damping rate gamma on a system of mass ``system_mass``."""
        return cls(kind=BathKind.CUTOFF_OHMIC, gamma=gamma, cutoff=cutoff,
                   system_mass=system_mass)


def friction_kernel(spec: BathSpec, t):
    """Memory kernel mu(t), causal (exactly zero for t < 0).

    Cutoff-Ohmic baths give the sinc kernel
    (3*c^2/Omega^3) * sin(Omega*t)/t of unit-mass modes, with a series
    evaluation of the removable singularity.  The strict-Ohmic kernel is a delta distribution
    and is rejected.
    """
    t = np.asarray(t, dtype=float)
    if spec.kind is BathKind.STRICT_OHMIC:
        raise UnsupportedBathError(
            "strict-Ohmic kernel is distributional; use gamma directly"
        )
    amp = 3.0 * spec.coupling**2 / spec.cutoff**3
    x = spec.cutoff * t
    small = np.abs(x) < _SINC_SERIES_CUT
    safe_t = np.where(small, 1.0, t)
    series = spec.cutoff * (1.0 - x**2 / 6.0)
    value = amp * np.where(small, series, np.sin(x) / safe_t)
    out = np.where(t < 0, 0.0, value)
    return out if out.ndim else float(out)


def discretize_bath(spec: BathSpec, n_modes: int) -> ModeSet:
    """Deterministic quantile discretization of a cutoff-Ohmic bath.

    Mode j sits at the midpoint quantile of the omega^2 density,
    omega_j = Omega * ((j - 1/2)/N)^(1/3), with unit masses and equal
    couplings c/sqrt(N), c the spec's :attr:`BathSpec.coupling`.  Quantile
    placement is reproducible and converges to the continuum kernel faster
    than random sampling.
    """
    if spec.kind is not BathKind.CUTOFF_OHMIC:
        raise UnsupportedBathError("only cutoff-Ohmic baths can be discretized")
    if n_modes < 1:
        raise DomainError("n_modes must be >= 1")
    j = np.arange(1, n_modes + 1, dtype=float)
    omega = spec.cutoff * ((j - 0.5) / n_modes) ** (1.0 / 3.0)
    coupling = np.full(n_modes, spec.coupling / math.sqrt(n_modes))
    return ModeSet(omega=omega, mass=np.ones(n_modes), coupling=coupling)
