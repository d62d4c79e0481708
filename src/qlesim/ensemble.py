"""Streaming moment accumulation for trajectory ensembles.

Estimates are accumulated with Welford's algorithm so that ensembles can
be processed in chunks; accumulators merge associatively, which makes the
result independent of how realizations are scheduled (up to floating-point
commutation error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["MomentAccumulator", "MomentEstimate", "EnsembleResult"]


class MomentAccumulator:
    """Welford mean/variance accumulator with batched updates and merging."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, x: float):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def update_batch(self, values):
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        other = MomentAccumulator()
        other.n = int(values.size)
        other.mean = float(values.mean())
        other.m2 = float(((values - other.mean) ** 2).sum())
        self.merge(other)

    def merge(self, other: "MomentAccumulator"):
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * other.n / n
        self.m2 += other.m2 + delta**2 * self.n * other.n / n
        self.n = n

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.n < 2:
            return float("nan")
        return self.m2 / (self.n - 1)

    @property
    def std_error(self) -> float:
        """Standard error of the mean."""
        if self.n < 2:
            return float("nan")
        return float(np.sqrt(self.variance / self.n))

    def estimate(self) -> "MomentEstimate":
        return MomentEstimate(mean=self.mean, se=self.std_error, n=self.n)


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo estimate with its standard error and sample count."""

    mean: float
    se: float
    n: int


@dataclass(frozen=True)
class EnsembleResult:
    """Moment estimates from a trajectory ensemble plus RNG provenance.

    ``moments`` maps observable names to estimates; ``meta`` records the
    run parameters that determine the estimates (step size, count, method)
    so a result is reproducible from its own metadata.
    """

    moments: dict
    n_traj: int
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_traj < 1:
            raise DomainError("n_traj must be >= 1")

    def __getitem__(self, key: str) -> MomentEstimate:
        return self.moments[key]
