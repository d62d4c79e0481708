"""Fluctuation-dissipation quadrature for the damped oscillator.

Steady-state symmetrized correlations follow from the susceptibility via

    C_x(tau)  = (hbar/pi) * Int_0^inf  L(w) * u(w) * cos(w tau) dw
    C_v(tau)  = (hbar/pi) * Int_0^inf  w^2 * L(w) * u(w) * cos(w tau) dw

with L(w) = Im[alpha(w)]/w and u(w) = w*coth(hbar w / 2 kB T), both regular
at w = 0.  The position integral converges absolutely; the velocity
integrand decays only like 1/w for a strict-Ohmic bath, so its equal-time
value is log-divergent and an explicit frequency cutoff is required.

For a strict-Ohmic bath L is rational, and its pole pair at
w_d + i gamma/2 (w_d = sqrt(w0^2 - gamma^2/4)) carries the narrow
resonance.  Its residues give a closed-form resonance term, which is the
weak-coupling limit plus O(gamma), and quadrature integrates only the
smooth O(gamma) remainder (Grabert, Schramm & Ingold, Phys. Rep. 168, 115
(1988)).  Cutoff baths are integrated on panels directly.

The same dissipation profile defines the normalized frequency densities
P_k and P_p whose coth-weighted means give the kinetic and potential
energies; their dimensionless forms (in Lambda = w/w0, Gamma = gamma/w0)
are narrow Lorentzians that collapse onto delta(Lambda - 1) in the
weak-coupling limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import exp1

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


def pk_dimensional(omega, system: SystemSpec, bath: BathSpec):
    """P_k(omega) = (2 m / pi) * omega^2 * L(omega), normalized on [0, inf)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise DomainError("omega must be nonnegative")
    loss = Susceptibility(system, bath).loss(omega)
    out = (2.0 * system.mass / math.pi) * omega**2 * loss
    return out if out.ndim else float(out)


def pp_dimensional(omega, system: SystemSpec, bath: BathSpec):
    """P_p(omega) = (2 m w0^2 / pi) * L(omega)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise DomainError("omega must be nonnegative")
    loss = Susceptibility(system, bath).loss(omega)
    out = (2.0 * system.mass * system.omega0**2 / math.pi) * loss
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


def _exp_e1(z):
    """e^z E1(z), also where e^z overflows and E1(z) underflows or overflows."""
    if abs(z.real) < 700.0:
        return cmath.exp(z) * complex(exp1(z))
    # |z| >= 700: the asymptotic series sum_n (-1)^n n! / z^(n+1) reaches
    # rounding within a dozen terms
    return sum((-1) ** n * math.factorial(n) / z ** (n + 1) for n in range(12))


def _pole_pair_tail(c, p, tau, upper):
    """Int_upper^inf 2 Re[c/(w - p) - c/(w + p)] cos(w tau) dw in closed form.

    With u = w - q the cosine splits into e^(+-i u tau) / u, whose integrals
    from upper - q are E1(-+i tau (upper - q)); for Im q > 0 the path stays
    off the branch cut of E1 as long as upper > Re q.
    """
    if math.isinf(upper):
        return 0.0
    if tau == 0.0:
        return 2.0 * (c * cmath.log((upper + p) / (upper - p))).real
    phase = cmath.exp(1j * upper * tau)

    def j(q):  # e^(+-i q tau) E1(-+z) = e^(+-i upper tau) e^(-+z) E1(-+z)
        z = 1j * tau * (upper - q)
        return 0.5 * (phase * _exp_e1(-z) + _exp_e1(z) / phase)

    return 2.0 * (c * (j(p) - j(-p))).real


def _strict_ohmic_integral(tau, system, gamma, cfg, velocity, label):
    """Int_0^omega_max L(w) h(w) cos(w tau) dw for strict-Ohmic damping.

    h(w) = w^n coth(a w), n = 1 (position) or 3 (velocity).  The loss
    L = (gamma/m) / ((w0^2 - w^2)^2 + gamma^2 w^2) has poles at +-p and
    +-conj(p), p = w_d + i gamma/2, and the residue of L h at p is
    c = h(p) / (4 i m p w_d).  Their principal parts
    Q(w) = 2 Re[c/(w - p) - c/(w + p)] carry the whole resonance: over
    [0, inf) they integrate to -2 pi Im[c e^(i p tau)], the weak-coupling
    limit up to O(gamma).  Their tail above omega_max is subtracted in
    closed form, and quadrature sees only L h - Q, which is smooth on the
    scale of w0.  When gamma > w0 or w_d >= omega_max there is no narrow
    peak to remove and c = 0, so the same code integrates L h itself.
    """
    m, w0, a = system.mass, system.omega0, system.thermal_coth_scale
    if w0 == 0.0 and not velocity:
        raise DomainError("the position correlation of a free particle "
                          "(omega0 = 0) diverges at low frequency")
    upper = math.inf if cfg.omega_max is None else cfg.omega_max
    power = 3 if velocity else 1

    def weight(w):  # h(w) in scalar math; scaled_omega_coth costs ~13 us a call
        x = a * w
        wcoth = (1.0 + x * x / 3.0 - x**4 / 45.0) / a if x < 1e-4 else w / math.tanh(x)
        return w ** (power - 1) * wcoth

    wd = math.sqrt(max(w0 * w0 - 0.25 * gamma * gamma, 0.0))
    p = complex(wd, 0.5 * gamma)
    if gamma <= w0 and wd < upper:
        c = p**power / cmath.tanh(a * p) / (4j * m * p * wd)
    else:
        c = 0j
    k, p2 = 2.0 * c * p, p * p  # Q(w) = 2 Re[k / (w^2 - p^2)]

    def remainder(w):
        w2 = w * w
        den = (w0 * w0 - w2) ** 2 + gamma * gamma * w2
        # den = 0 only at w = 0 for a free particle, where L h -> 1/(m a gamma)
        lh = (gamma / m) * weight(w) / den if den else 1.0 / (m * a * gamma)
        return lh - 2.0 * (k / (w2 - p2)).real

    closed = (-2.0 * math.pi * (c * cmath.exp(1j * p * tau)).imag
              - _pole_pair_tail(c, p, tau, upper))
    # the remainder is O(gamma) of the value, so its error is judged against
    # the closed-form part too; the 1/50 offsets the slack of integrate_panels,
    # so the bound is rel_tol of the whole value.  One panel: the remainder
    # is smooth, and an edge at w0 would add two boundary terms ~ 1/tau that
    # cancel to the last digits of a value decayed at large tau
    rcfg = replace(cfg, abs_tol=max(cfg.abs_tol, cfg.rel_tol * abs(closed) / 50.0))
    infinite = math.isinf(upper)
    edges = [0.0] if infinite else [0.0, upper]
    value, _ = integrate_panels(remainder, edges, rcfg, tau=tau, tail_to_inf=infinite,
                                label=label)
    return closed + value


def _correlation(tau, system, bath, cfg, velocity):
    if not bath.gamma > 0:
        raise DomainError("bath damping must be positive")
    tau = abs(float(tau))
    a = system.thermal_coth_scale
    w0 = system.omega0
    label = "velocity correlation" if velocity else "position correlation"

    if bath.kind is BathKind.STRICT_OHMIC:
        if velocity and (cfg.omega_max is None or not np.isfinite(cfg.omega_max)):
            raise UVDivergenceError(
                "velocity correlation is UV-divergent for a strict-Ohmic "
                "bath (log at tau = 0); set a finite omega_max"
            )
        value = _strict_ohmic_integral(tau, system, bath.gamma, cfg, velocity, label)
        return (system.hbar / math.pi) * value

    s = Susceptibility(system, bath)
    if velocity:
        integrand = lambda w: w**2 * s.loss(w) * scaled_omega_coth(w, a)
    else:
        integrand = lambda w: s.loss(w) * scaled_omega_coth(w, a)

    # cutoff bath: the loss is smooth below the cutoff and falls to zero at
    # it like 1/ln^2, which geometric shoulders resolve; above it the loss
    # is the bound-state delta, added in closed form
    cut = bath.cutoff
    upper = cut if cfg.omega_max is None else min(cut, cfg.omega_max)
    shoulders = cut * (1.0 - 10.0 ** -np.arange(1, 9))
    edges = resonance_edges(w0, bath.gamma, cfg.peak_halfwidths, upper=upper)
    edges = sorted(set(edges).union(shoulders[shoulders < upper]))
    value, _ = integrate_panels(integrand, edges, cfg, tau=tau, label=label)
    bound = s.bound_state()
    if bound is not None and (cfg.omega_max is None or bound[0] <= cfg.omega_max):
        wb, weight = bound
        value += (weight * (wb**2 if velocity else 1.0) * scaled_omega_coth(wb, a)
                  * math.cos(wb * tau))
    return (system.hbar / math.pi) * value


def position_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None):
    """Symmetrized position autocorrelation C_x(tau).

    Strict Ohmic: the closed-form resonance term, which is the
    weak-coupling limit (hbar / 2 m w0) coth(hbar w0 / 2 kB T) cos(w0 tau)
    plus O(gamma), and a quadrature of the smooth O(gamma) remainder up to
    ``cfg.omega_max`` (to infinity when None; the integrand decays like
    1/omega^3).  Cutoff baths are integrated on panels up to the cutoff,
    plus the closed-form term of the bound state above it.  Even in tau
    by construction.  Raises DomainError for a free particle (omega0 = 0)
    on a strict-Ohmic bath, whose position correlation diverges.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, velocity=False)


def velocity_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None):
    """Symmetrized velocity autocorrelation C_v(tau).

    Strict Ohmic: the closed-form resonance term, which is the
    weak-coupling limit (hbar w0 / 2 m) coth(hbar w0 / 2 kB T) cos(w0 tau)
    plus O(gamma), and a quadrature of the smooth O(gamma) remainder.  It
    requires a finite ``cfg.omega_max``: the remainder decays only like
    1/omega, so the result depends logarithmically on that cutoff at
    tau = 0 and the caller owns the choice.  Weak-coupling values are
    cutoff-insensitive because the resonance term carries the weight.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, velocity=True)


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
                  cfg: QuadratureConfig | None = None) -> EnergySplit:
    """Equal-time channel energies Ek = m*C_v(0), Ep = m*w0^2*C_x(0)."""
    cfg = cfg or QuadratureConfig()
    ek = system.mass * velocity_correlation(0.0, system, bath, cfg)
    ep = system.mass * system.omega0**2 * position_correlation(0.0, system, bath, cfg)
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
