"""Quantum Langevin dynamics of a damped harmonic oscillator.

Modules cover the bath models and friction kernels (:mod:`.bath`), the
frequency-domain response (:mod:`.response`), fluctuation-dissipation
quadrature (:mod:`.fdt`), the finite-bath microscopic realization
(:mod:`.microbath`), the Markovian and rotating-wave weak-coupling
simulators (:mod:`.markovian`, :mod:`.rwa`), weak-coupling thermodynamics
(:mod:`.thermo`), and a CSV/JSON command-line front end (:mod:`.cli`).
``import qlesim`` needs only numpy: scipy is imported at the first
quadrature, special-function or root-finding call.
"""

from .bath import BathKind, BathSpec, ModeSet, SystemSpec
from .ensemble import MomentAccumulator, MomentEstimate
from .errors import (
    DomainError,
    QlesimError,
    QuadratureError,
    UnstableIntegrationError,
    UnsupportedBathError,
    UVDivergenceError,
)
from .fdt import EnergySplit
from .quadrature import QuadratureConfig

__all__ = [
    "BathKind",
    "BathSpec",
    "ModeSet",
    "SystemSpec",
    "MomentAccumulator",
    "MomentEstimate",
    "EnergySplit",
    "QuadratureConfig",
    "QlesimError",
    "DomainError",
    "UnsupportedBathError",
    "UVDivergenceError",
    "QuadratureError",
    "UnstableIntegrationError",
]

__version__ = "0.1.0"
