"""Exception types shared across the package."""


class QlesimError(Exception):
    """Base class for all package errors."""


class DomainError(QlesimError, ValueError):
    """An argument violates an operation's domain (sign, range, kind)."""


class UnsupportedBathError(DomainError):
    """The requested quantity is not pointwise-defined for this bath kind."""


class UVDivergenceError(DomainError):
    """An integral diverges at high frequency without an explicit cutoff."""


class QuadratureError(QlesimError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ConvergenceError(QlesimError, RuntimeError):
    """An iterative solver did not converge within its iteration cap."""


class UnstableIntegrationError(QlesimError, RuntimeError):
    """A trajectory integrator detected energy blowup; reduce the step."""
