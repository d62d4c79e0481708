"""Frequency-domain quadrature of f(omega) cos(omega tau), for a whole array of tau at once.

The integrands are smooth on the scale of omega0: a narrow resonance is
removed before quadrature by its pole pair in closed form (see
:mod:`qlesim.fdt`), and panel edges mark only what remains, such as the log
shoulders of a bath cutoff.  Their panel geometry (nodes, half-widths and
ends) is built once per edge set.  f does not depend on tau, so it is
resolved once, by its interpolants at 16 Gauss-Legendre nodes a panel, and
the cosine is integrated exactly against them: a Filon-type rule (Piessens
et al., *QUADPACK*, Springer 1983; Iserles & Norsett, Proc. R. Soc. A 461,
1383 (2005)) whose node count does not grow with tau.  Integrands map a numpy
array of omega to an array of the same shape, on a finite range only
(:mod:`qlesim.fdt` bounds the tail of an infinite one).  ``import qlesim``
needs only numpy: scipy is imported at its first special-function or
root-finding call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["QuadratureConfig", "coth", "scaled_omega_coth", "integrate_cosine"]


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


def scaled_omega_coth(omega, a):
    """Return omega * coth(a * omega), regular at omega = 0.

    This is the thermal weight of every fluctuation integral; its
    omega -> 0 limit is 1/a (the classical equipartition value), which
    the direct product 0 * inf would miss.  A float in gives a float out.
    """
    omega = np.asarray(omega, dtype=float)
    x = a * omega
    if np.abs(x).min(initial=1.0) >= 1e-4:
        out = omega / np.tanh(x)
    else:  # the series near the origin, where tanh(x) -> x leaves 0 / 0
        small = np.abs(x) < 1e-4
        s = np.where(small, x, 0.0)
        out = np.where(small, (1.0 + s * s / 3.0 - s**4 / 45.0) / a,
                       omega / np.tanh(np.where(small, 1.0, x)))
    return out if out.ndim else float(out)


# panel nodes; a Gauss rule exact to rounding for p(x) e^(i kappa x), kappa < _BY_PARTS
_NODES, _DENSE, _BY_PARTS = 16, 40, 12.0
# tau a block, panels split at once, rounds of splitting before giving up, edge sets kept
_TAU_BLOCK, _MAX_PANELS, _MAX_ROUNDS, _GEOMETRIES = 64, 4096, 60, 32
# trailing coefficients below this share of the coefficient sum are rounding
_NOISE = 8.0 * _NODES * np.finfo(float).eps
_POWERS = np.arange(1.0, _NODES + 1.0)


@functools.cache
def _rules():
    """Nodes x and y, and the map from a panel's values at x to, column by column:

    the Legendre coefficients a_k of their interpolant p; p at the dense
    Gauss nodes y, times the weights; and, as pairs of floats, c_m p^(m)(1)
    and -c_m p^(m)(-1), m < 16, with p^(m)(+-1) = sum_k a_k (+-1)^(k+m)
    (k+m)! / (2^m m! (k-m)!) and c_m = (-1)^m i^-(m+1).  By parts,
    Int_-1^1 p(x) e^(i kappa x) dx = sum_m c_m kappa^-(m+1) [p^(m)(1) e^(i kappa)
    - p^(m)(-1) e^(-i kappa)].
    """
    from numpy.polynomial import legendre

    n = _NODES
    x, w = legendre.leggauss(n)
    coef = legendre.legvander(x, n - 1).T * w * (np.arange(n) + 0.5)[:, None]
    k, m = np.arange(n)[:, None], np.arange(n)
    deriv = np.array([[math.factorial(i + j) / (2**j * math.factorial(j) * math.factorial(i - j))
                       if j <= i else 0.0 for j in range(n)] for i in range(n)])
    deriv = deriv * (-1.0) ** m * (-1j) ** (m + 1)
    ends = np.stack((deriv, -deriv * (-1.0) ** (k + m)), axis=-1).reshape(n, 2 * n)
    y, wy = legendre.leggauss(_DENSE)
    dense = (legendre.legvander(y, n - 1) @ coef).T * wy
    return x, y, np.hstack((coef.T, dense, (coef.T @ ends).view(float)))


@functools.lru_cache(maxsize=_GEOMETRIES)
def _edge_panels(edges):
    """Read-only :func:`_panels` of a tuple of two or more strictly increasing edges, else None."""
    edges = np.array(edges)
    if len(edges) < 2 or (edges[1:] <= edges[:-1]).any():
        return None
    panels = _panels(edges[:-1], edges[1:])
    for part in panels:
        part.flags.writeable = False
    return panels


def _panels(lo, hi):
    """Panels [lo, hi]: lo, hi, half-widths, 16-node and 40-node abscissae and end pairs."""
    x, y, _ = _rules()
    half = 0.5 * (hi - lo)
    mid = (lo + half)[:, None]
    return lo, hi, half, mid + half[:, None] * x, mid + half[:, None] * y, np.array([hi, lo]).T


def _resolve(f, panels, tol, label):
    """Panels, their mapped values and the error bound of f resolved to ``tol``.

    A panel's bound is 2 h times its trailing 4 coefficients, unless these
    are rounding.  While the bounds sum above what is left of ``tol``, each
    panel above an equal share of it is halved, and the others are kept.
    """
    _, _, maps = _rules()
    kept, err, left = [], 0.0, tol
    for _ in range(_MAX_ROUNDS):
        lo, hi, half, nodes = panels[:4]
        if len(lo) > _MAX_PANELS:
            break
        mapped = f(nodes) @ maps
        a = np.abs(mapped[:, :_NODES])
        trail, noise = a[:, -4:].sum(axis=1), _NOISE * a.sum(axis=1)
        bound = np.where(trail > noise, trail, 0.0)
        if 2.0 * float(half @ bound) <= left:  # an infinite or nan value fails here
            err += 2.0 * float(half @ (trail + noise))
            if not kept:
                return panels, mapped, err
            lo, hi, mapped = (np.concatenate(part) for part in zip(*kept, (lo, hi, mapped)))
            return _panels(lo, hi), mapped, err
        if not np.isfinite(noise).all():
            raise QuadratureError(f"{label}: the integrand is not finite on "
                                  f"[{lo[0]:.6g}, {hi[-1]:.6g}]", error_bound=math.inf)
        bound *= 2.0 * half
        ok = bound <= left / len(lo)
        left -= float(bound[ok].sum())
        err += 2.0 * float(half[ok] @ (trail[ok] + noise[ok]))
        kept.append((lo[ok], hi[ok], mapped[ok]))
        mid = 0.5 * (lo + hi)[~ok]
        panels = _panels(np.concatenate((lo[~ok], mid)), np.concatenate((mid, hi[~ok])))
    raise QuadratureError(f"{label}: panels still unresolved after {_MAX_ROUNDS} rounds "
                          f"or beyond {_MAX_PANELS} at once", error_bound=math.inf)


def _cosine_panels(panels, mapped, taus):
    """Sum over the panels of Int p(omega) cos(omega tau) dw, p the interpolants."""
    _, _, half, _, nodes, ends = panels
    weighted = mapped[:, _NODES:_NODES + _DENSE, None]
    derivs = mapped[:, _NODES + _DENSE:].view(complex).reshape(len(half), _NODES, 2)
    out = np.empty(len(taus))
    for start in range(0, len(taus), _TAU_BLOCK):
        block = taus[start:start + _TAU_BLOCK]
        kappa = np.multiply.outer(block, half)
        near = kappa < _BY_PARTS  # each rule where any (tau, panel) needs it, kept where it holds
        count = np.count_nonzero(near)
        if count:
            part = np.matmul(np.cos(np.multiply.outer(block, nodes))[..., None, :],
                             weighted)[..., 0, 0]
        if count < near.size:  # h Re[S+ e^(i b tau) - S- e^(i a tau)] over [a, b],
            u = 1.0 / np.maximum(kappa, _BY_PARTS)  # S+- = sum_m c_m p^(m)(+-1) u^(m+1)
            s = np.matmul((u[..., None] ** _POWERS)[..., None, :], derivs)
            far = np.matmul(s, np.exp(1j * np.multiply.outer(block, ends))[..., None]).real
            part = np.where(near, part, far[..., 0, 0]) if count else far[..., 0, 0]
        out[start:start + _TAU_BLOCK] = part @ half
    return out


def integrate_cosine(f, edges, cfg, taus=0.0, *, label=""):
    """Integrate ``f(omega) * cos(omega * tau)`` from edges[0] to edges[-1], for every tau.

    ``f`` maps an array of omega to an array, without the cosine.  ``edges``
    are at least two strictly increasing initial panel boundaries; panels
    are split until the error bound of f's interpolants, summed over the
    panels, is below ``cfg.abs_tol``, a bound for every tau since |cos| <= 1.
    ``taus`` is a float or a 1-D array; 0 disables the weight.

    Returns (values, error bounds), floats for a float tau.  Raises
    QuadratureError if a bound exceeds 50 max(abs_tol, rel_tol |value|), or
    the panels stop converging.
    """
    panels = _edge_panels(tuple(map(float, edges)))
    if panels is None:
        raise DomainError(f"panel edges must be two or more, strictly increasing ({label})")
    taus = np.abs(np.asarray(taus, dtype=float))
    panels, mapped, err = _resolve(f, panels, cfg.abs_tol, label)
    total = _cosine_panels(panels, mapped, taus.ravel()).reshape(taus.shape)
    bad = err > 50.0 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
    if bad.any():
        worst = float(total.flat[np.argmax(bad)])
        raise QuadratureError(f"{label}: quadrature did not converge (error bound {err:.3e}, "
                              f"estimate {worst:.6e})", estimate=worst, error_bound=err)
    return (float(total), err) if taus.ndim == 0 else (total, np.full(taus.shape, err))
