"""Streaming moment accumulation for trajectory ensembles.

Estimates are accumulated with Welford's algorithm so that ensembles can
be processed in chunks; accumulators merge associatively, which makes the
result independent of how realizations are scheduled (up to floating-point
commutation error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MomentAccumulator", "MomentEstimate"]


class MomentAccumulator:
    """Welford mean/variance accumulator with batched updates and merging."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

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
