"""Fluctuation-dissipation quadrature for the damped oscillator.

Steady-state symmetrized correlations follow from the susceptibility via

    C_x(tau)  = (hbar/pi) * Int_0^inf  L(w) * u(w) * cos(w tau) dw
    C_v(tau)  = (hbar/pi) * Int_0^inf  w^2 * L(w) * u(w) * cos(w tau) dw

with L(w) = Im[alpha(w)]/w and u(w) = w*coth(hbar w / 2 kB T), both regular
at w = 0.  The position integral converges absolutely; the velocity
integrand decays only like 1/w for a strict-Ohmic bath, so its equal-time
value is log-divergent and an explicit frequency cutoff is required.

The same dissipation profile defines the normalized frequency densities
P_k and P_p whose coth-weighted means give the kinetic and potential
energies; their dimensionless forms (in Lambda = w/w0, Gamma = gamma/w0)
are narrow Lorentzians that collapse onto delta(Lambda - 1) in the
weak-coupling limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bath import BathKind, BathSpec, SystemSpec
from .errors import DomainError, UVDivergenceError
from .quadrature import QuadratureConfig, integrate_panels, resonance_edges, scaled_omega_coth
from .response import Susceptibility

__all__ = [
    "EnergySplit",
    "pk_density",
    "pp_density",
    "pk_dimensional",
    "pp_dimensional",
    "density_normalization",
    "density_moment",
    "position_correlation",
    "velocity_correlation",
    "weak_limit_correlation",
    "weak_coupling_energy",
    "mean_energies",
    "extrapolated_weak_energies",
]

# window (in units of omega0) for density moments; the moments of P_k have
# divergent tails, see density_moment
DEFAULT_MOMENT_WINDOW = 10.0


@dataclass(frozen=True)
class EnergySplit:
    """Kinetic and potential channel energies, Ek = m*C_v(0), Ep = m*w0^2*C_x(0)."""

    ek: float
    ep: float


def _check_gamma(damping):
    if not damping > 0:
        raise DomainError("dimensionless damping must be positive")


def pk_density(lam, damping):
    """Dimensionless kinetic-energy density (2/pi) L^2 G / ((1-L^2)^2 + (L G)^2)."""
    _check_gamma(damping)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("lam must be nonnegative")
    out = (2.0 / math.pi) * lam**2 * damping / ((1.0 - lam**2) ** 2 + (lam * damping) ** 2)
    return out if out.ndim else float(out)


def pp_density(lam, damping):
    """Dimensionless potential-energy density (2/pi) G / ((1-L^2)^2 + (L G)^2).

    Unlike the kinetic density this does not vanish at lam = 0; its value
    there is 2*G/pi.
    """
    _check_gamma(damping)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("lam must be nonnegative")
    out = (2.0 / math.pi) * damping / ((1.0 - lam**2) ** 2 + (lam * damping) ** 2)
    return out if out.ndim else float(out)


def _susc(system, bath, susc):
    if susc is None:
        return Susceptibility(system, bath)
    return susc


def pk_dimensional(omega, system: SystemSpec, bath: BathSpec, susc: Susceptibility | None = None):
    """P_k(omega) = (2 m / pi) * omega^2 * L(omega), normalized on [0, inf)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise DomainError("omega must be nonnegative")
    s = _susc(system, bath, susc)
    out = (2.0 * system.mass / math.pi) * omega**2 * s.loss(omega)
    return out if out.ndim else float(out)


def pp_dimensional(omega, system: SystemSpec, bath: BathSpec, susc: Susceptibility | None = None):
    """P_p(omega) = (2 m w0^2 / pi) * L(omega)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise DomainError("omega must be nonnegative")
    s = _susc(system, bath, susc)
    out = (2.0 * system.mass * system.omega0**2 / math.pi) * s.loss(omega)
    return out if out.ndim else float(out)


def _density(which):
    if which == "k":
        return pk_density
    if which == "p":
        return pp_density
    raise DomainError("which must be 'k' or 'p'")


def density_normalization(which, damping, cfg: QuadratureConfig | None = None):
    """Integral of the dimensionless density over [0, inf); equals 1."""
    cfg = cfg or QuadratureConfig()
    f = _density(which)
    edges = resonance_edges(1.0, damping, cfg.peak_halfwidths, upper=max(4.0, 1.0 + 2 * cfg.peak_halfwidths * damping))
    value, _ = integrate_panels(
        lambda x: f(x, damping), edges, cfg, tail_to_inf=True,
        label=f"P_{which} normalization",
    )
    return value


def density_moment(which, order, damping, window=DEFAULT_MOMENT_WINDOW,
                   cfg: QuadratureConfig | None = None):
    """Moment Int_0^window Lambda^order * P(Lambda) dLambda.

    The kinetic density has slowly decaying tails (its first moment is
    log-divergent, its second linearly divergent on [0, inf)), so moments
    are only meaningful over a finite window.  In the delta-function limit
    both densities concentrate at Lambda = 1 and every windowed moment
    tends to 1.
    """
    cfg = cfg or QuadratureConfig()
    if order < 0:
        raise DomainError("order must be nonnegative")
    if not window > 1:
        raise DomainError("window must exceed the resonance at Lambda = 1")
    f = _density(which)
    edges = resonance_edges(1.0, damping, cfg.peak_halfwidths, upper=window)
    value, _ = integrate_panels(
        lambda x: x**order * f(x, damping), edges, cfg,
        label=f"P_{which} moment {order}",
    )
    return value


def _correlation(tau, system, bath, cfg, susc, velocity):
    if not bath.gamma > 0:
        raise DomainError("bath damping must be positive")
    tau = abs(float(tau))
    s = _susc(system, bath, susc)
    a = system.thermal_coth_scale
    w0 = system.omega0

    if velocity:
        integrand = lambda w: w**2 * s.loss(w) * scaled_omega_coth(w, a)
    else:
        integrand = lambda w: s.loss(w) * scaled_omega_coth(w, a)

    if bath.kind is BathKind.STRICT_OHMIC:
        if velocity and (cfg.omega_max is None or not np.isfinite(cfg.omega_max)):
            raise UVDivergenceError(
                "velocity correlation is UV-divergent for a strict-Ohmic "
                "bath (log at tau = 0); set a finite omega_max"
            )
        if cfg.omega_max is not None:
            upper = cfg.omega_max
            tail = False
        else:
            upper = w0 + 2.0 * cfg.peak_halfwidths * bath.gamma
            tail = True
        edges = resonance_edges(w0, bath.gamma, cfg.peak_halfwidths, upper=upper)
        value, _ = integrate_panels(
            integrand, edges, cfg, tau=tau, tail_to_inf=tail,
            label="velocity correlation" if velocity else "position correlation",
        )
        return (system.hbar / math.pi) * value

    # cutoff bath: the loss is smooth below the cutoff and falls to zero at
    # it like 1/ln^2, which geometric shoulders resolve; above it the loss
    # is the bound-state delta, added in closed form
    cut = bath.cutoff
    upper = cut if cfg.omega_max is None else min(cut, cfg.omega_max)
    shoulders = cut * (1.0 - 10.0 ** -np.arange(1, 9))
    edges = resonance_edges(w0, bath.gamma, cfg.peak_halfwidths, upper=upper)
    edges = sorted(set(edges).union(shoulders[shoulders < upper]))
    value, _ = integrate_panels(
        integrand, edges, cfg, tau=tau,
        label="velocity correlation" if velocity else "position correlation",
    )
    bound = s.bound_state()
    if bound is not None and (cfg.omega_max is None or bound[0] <= cfg.omega_max):
        wb, weight = bound
        value += (weight * (wb**2 if velocity else 1.0) * scaled_omega_coth(wb, a)
                  * math.cos(wb * tau))
    return (system.hbar / math.pi) * value


def position_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None,
                         susc: Susceptibility | None = None):
    """Symmetrized position autocorrelation C_x(tau).

    Adaptive panel quadrature with the resonance isolated at
    omega0 * (1 +/- k*gamma); the integrand decays like 1/omega^3 so the
    high-frequency tail is summed to infinity (strict Ohmic).  Cutoff
    baths are integrated up to the cutoff, plus the closed-form term of
    the bound state above it.  Even in tau by construction.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, susc, velocity=False)


def velocity_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None,
                         susc: Susceptibility | None = None):
    """Symmetrized velocity autocorrelation C_v(tau).

    Requires a finite ``cfg.omega_max`` for strict-Ohmic baths; the result
    depends logarithmically on that cutoff at tau = 0 and the caller owns
    the choice.  Weak-coupling values are cutoff-insensitive because the
    spectral weight concentrates at the resonance.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, susc, velocity=True)


def weak_limit_correlation(tau, system: SystemSpec):
    """Closed-form weak-coupling (gamma -> 0+) correlations.

    Returns (C_x, C_v) = (hbar/(2 m w0), hbar w0/(2 m)) * coth(hbar w0 / 2 kB T) * cos(w0 tau).
    """
    w0 = system.omega0
    if not w0 > 0:
        raise DomainError("weak-coupling closed form needs omega0 > 0")
    c = float(system.thermal_coth(w0)) * math.cos(w0 * tau)
    cx = system.hbar / (2.0 * system.mass * w0) * c
    cv = system.hbar * w0 / (2.0 * system.mass) * c
    return cx, cv


def weak_coupling_energy(system: SystemSpec) -> float:
    """(hbar w0 / 2) * coth(hbar w0 / 2 kB T), the common weak-coupling energy."""
    w0 = system.omega0
    if not w0 > 0:
        raise DomainError("weak-coupling energy needs omega0 > 0")
    return 0.5 * system.hbar * w0 * float(system.thermal_coth(w0))


def mean_energies(system: SystemSpec, bath: BathSpec,
                  cfg: QuadratureConfig | None = None,
                  susc: Susceptibility | None = None) -> EnergySplit:
    """Equal-time channel energies Ek = m*C_v(0), Ep = m*w0^2*C_x(0)."""
    cfg = cfg or QuadratureConfig()
    ek = system.mass * velocity_correlation(0.0, system, bath, cfg, susc)
    ep = system.mass * system.omega0**2 * position_correlation(0.0, system, bath, cfg, susc)
    return EnergySplit(ek=ek, ep=ep)


def extrapolated_weak_energies(system: SystemSpec,
                               cfg: QuadratureConfig | None = None,
                               damping_ratios=(4e-3, 2e-3, 1e-3)) -> EnergySplit:
    """Richardson extrapolation of the channel energies to gamma -> 0+.

    Evaluates the strict-Ohmic quadrature at the given gamma/omega0 values
    and extrapolates a polynomial in the ratio to zero; for these
    observables the limit commutes with the frequency integral, so the
    extrapolation converges to the closed-form weak-coupling energy.
    """
    cfg = cfg or QuadratureConfig()
    if cfg.omega_max is None:
        cfg = replace(cfg, omega_max=1e3 * system.omega0)
    ratios = sorted(set(float(r) for r in damping_ratios), reverse=True)
    if len(ratios) < 2:
        raise DomainError("need at least two damping ratios to extrapolate")
    eks, eps = [], []
    for r in ratios:
        bath = BathSpec.strict_ohmic(r * system.omega0)
        split = mean_energies(system, bath, cfg)
        eks.append(split.ek)
        eps.append(split.ep)
    deg = len(ratios) - 1
    ek0 = float(np.polynomial.polynomial.polyfit(ratios, eks, deg)[0])
    ep0 = float(np.polynomial.polynomial.polyfit(ratios, eps, deg)[0])
    return EnergySplit(ek=ek0, ep=ep0)
