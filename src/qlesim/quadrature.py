"""Adaptive frequency-domain quadrature on panels.

The integrands handed to :func:`integrate_panels` are smooth on the
scale of omega0: a narrow resonance, whose width (set by the damping) can
be orders of magnitude below the integration range, is removed before
quadrature by its pole pair in closed form (see :mod:`qlesim.fdt`).
Panel edges mark only what remains, such as the log shoulders of a bath
cutoff, and scipy's oscillatory (QAWO/QAWF) rules take over when a
cos(omega*tau) factor is present.  ``import qlesim`` needs only numpy: scipy
is imported at its first quadrature, special-function or root-finding call.
Integrands are called once per node, so they map a float to a float in ``math``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["QuadratureConfig", "coth", "scaled_omega_coth", "integrate_panels"]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and upper cutoff of the frequency-domain integrals.

    A narrow resonance needs no setting here: :mod:`qlesim.fdt` removes
    it by its pole pair before quadrature.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target relative/absolute tolerance of each full result; for a
        correlation function abs_tol is in the units of the correlation.
    omega_max : float or None
        Upper cutoff for integrals whose integrand decays too slowly to
        be summed to infinity.  None means "no cutoff requested".
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    omega_max: float | None = None

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.omega_max is not None and not self.omega_max > 0:
            raise DomainError("omega_max must be positive when finite")


def coth(x):
    """Stable hyperbolic cotangent, series-expanded for small arguments."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, _coth_series(np.where(small, x, 0.0)), 1.0 / np.tanh(safe))
    return out if out.ndim else float(out)


def _coth_series(x):
    # Laurent series around 0; the 1/x term is evaluated last so x = 0
    # propagates an inf rather than a nan.
    with np.errstate(divide="ignore"):
        return 1.0 / x + x / 3.0 - x**3 / 45.0


def scaled_omega_coth(omega: float, a: float) -> float:
    """Return omega * coth(a * omega), regular at omega = 0.

    This is the thermal weight of every fluctuation integral; its
    omega -> 0 limit is 1/a (the classical equipartition value), which
    the direct product 0 * inf would miss.  It takes and returns one float,
    in ``math``, because quadrature integrands call it once per node.
    """
    x = a * omega
    return (1.0 + x * x / 3.0 - x**4 / 45.0) / a if abs(x) < 1e-4 else omega / math.tanh(x)


def integrate_panels(f, edges, cfg, *, tau=0.0, tail_to_inf=False, label=""):
    """Integrate ``f(omega) * cos(omega * tau)`` over panels plus a tail.

    Parameters
    ----------
    f : callable
        Smooth scalar integrand (the cos factor is NOT included in f).
    edges : sequence of float
        Strictly increasing panel boundaries, starting at the lower limit.
    cfg : QuadratureConfig
    tau : float
        Oscillation period of the cosine weight; 0 disables the weight.
    tail_to_inf : bool
        Integrate [edges[-1], inf) as a final panel (plain or Fourier).
    label : str
        Name used in error messages.

    Returns
    -------
    (value, error_bound) : tuple of float

    Raises
    ------
    QuadratureError
        If the summed error bound exceeds the configured tolerance.
    """
    from scipy import integrate

    edges = [float(e) for e in edges]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DomainError(f"panel edges must be strictly increasing ({label})")
    tau = abs(float(tau))

    weight = dict(weight="cos", wvar=tau, maxp1=100) if tau > 0.0 else {}
    uppers = edges[1:] + ([np.inf] if tail_to_inf else [])
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges, uppers):
            epsabs = cfg.abs_tol
            if weight and b == np.inf:  # QAWF has no relative tolerance
                epsabs = max(cfg.abs_tol, cfg.rel_tol * max(abs(total), cfg.abs_tol))
            v, e = integrate.quad(f, a, b, epsabs=epsabs, epsrel=cfg.rel_tol, limit=200,
                                  **weight)
            total += v
            err += e

    tol = max(cfg.abs_tol, cfg.rel_tol * abs(total)) * 50.0
    if err > tol:
        raise QuadratureError(
            f"{label}: quadrature did not converge (error bound {err:.3e}, "
            f"estimate {total:.6e})",
            estimate=total,
            error_bound=err,
        )
    return total, err

