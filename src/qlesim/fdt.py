"""Fluctuation-dissipation quadrature for the damped oscillator.

Steady-state symmetrized correlations follow from the susceptibility via

    C_x(tau)  = (hbar/pi) * Int_0^inf  L(w) * u(w) * cos(w tau) dw
    C_v(tau)  = (hbar/pi) * Int_0^inf  w^2 * L(w) * u(w) * cos(w tau) dw

with L(w) = Im[alpha(w)]/w and u(w) = w*coth(hbar w / 2 kB T), both regular
at w = 0.  The position integral converges absolutely; the velocity
integrand decays only like 1/w for a strict-Ohmic bath, so its equal-time
value is log-divergent and an explicit frequency cutoff is required.

Every resonant integral here, strict- or cutoff-Ohmic, takes its narrow
peak from one pole pair of L near w0 + i gamma/2 (closed form for strict
Ohmic, Newton's method for a cutoff bath).  Its residues give a
closed-form resonance term, the weak-coupling limit plus O(gamma), and
quadrature integrates only the smooth O(gamma) remainder (Grabert,
Schramm & Ingold, Phys. Rep. 168, 115 (1988)).

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

from .bath import BathKind, BathSpec, SystemSpec
from .errors import DomainError, UVDivergenceError
from .quadrature import QuadratureConfig, integrate_panels, scaled_omega_coth
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


def density_normalization(which, damping, cfg: QuadratureConfig | None = None):
    """Integral of the dimensionless density over [0, inf); equals 1."""
    return density_moment(which, 0, damping, math.inf, cfg)


def density_moment(which, order, damping, window=DEFAULT_MOMENT_WINDOW,
                   cfg: QuadratureConfig | None = None):
    """Moment Int_0^window Lambda^order * P(Lambda) dLambda.

    The kinetic density has slowly decaying tails (its first moment is
    log-divergent, its second linearly divergent on [0, inf)), so those
    need a finite window; window = inf raises.  In the delta-function limit
    both densities concentrate at Lambda = 1 and every windowed moment
    tends to 1.  P_p is (2/pi) L with m = w0 = 1 and gamma = damping, and
    P_k = Lambda^2 P_p, so the pole-pair weight is h = (2/pi) Lambda^n,
    n = order (+2 for P_k).
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    if which not in ("k", "p"):
        raise DomainError("which must be 'k' or 'p'")
    n = order + (2 if which == "k" else 0)  # the integrand decays like Lambda^(n-4)
    tail = math.isinf(window)
    if not window > 1 or (tail and n > 2):
        raise DomainError("window must exceed 1, the resonance, and be finite "
                          "where the moment diverges")
    _check_gamma(damping)
    return _pole_pair_integral(
        lambda x: x**n * pp_density(x, damping), lambda z: (2.0 / math.pi) * z**n,
        _ohmic_pole(1.0, 1.0, damping), 0.0, [0.0] if tail else [0.0, window],
        cfg or QuadratureConfig(), f"P_{which} moment {order}", tail_to_inf=tail)


def _exp_e1(z):
    """e^z E1(z), also where e^z overflows and E1(z) underflows or overflows."""
    from scipy.special import exp1

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


def _ohmic_pole(m, w0, gamma):
    """(p, fbar'(p)) of the strict-Ohmic resonance, p = w_d + i gamma/2.

    fbar(z) = m (w0^2 - z^2) + i m gamma z, so fbar'(p) = -2 m w_d.  None
    when gamma > w0: the peak is then no narrower than w0.
    """
    if gamma > w0:
        return None
    wd = math.sqrt(w0 * w0 - 0.25 * gamma * gamma)
    return complex(wd, 0.5 * gamma), complex(-2.0 * m * wd)


def _pole_pair_integral(lh, h, pole, tau, edges, cfg, label, tail_to_inf=False, scale=1.0):
    """Int_0^upper L(w) h(w) cos(w tau) dw with the resonance in closed form.

    ``lh`` is the real integrand L h and ``h`` the weight, also at complex
    arguments; ``pole`` is (p, fbar'(p)) with fbar(z) the conjugate of the
    continued 1/alpha, or None.  The residue of L h at p is
    c = -h(p) / (2 i p fbar'(p)), and the principal parts of the pole pair
    Q(w) = 2 Re[c/(w - p) - c/(w + p)] carry the whole resonance: over
    [0, inf) they integrate to -2 pi Im[c e^(i p tau)], the weak-coupling
    limit up to O(gamma).  Their tail above the upper limit (edges[-1], or
    inf with ``tail_to_inf``) is subtracted in closed form, and quadrature
    on the panels sees only L h - Q, which is smooth on the scale of w0.
    With no pole, or Re p at or above the upper limit, c = 0 and the same
    code integrates L h itself (Grabert, Schramm & Ingold, Phys. Rep. 168,
    115 (1988)).  ``cfg.abs_tol`` bounds ``scale`` times the integral.
    """
    upper = math.inf if tail_to_inf else edges[-1]
    c, p = 0j, 1j
    if pole is not None and pole[0].real < upper:
        p, slope = pole
        c = -h(p) / (2j * p * slope)
    k, p2 = 2.0 * c * p, p * p  # Q(w) = 2 Re[k / (w^2 - p^2)]

    def remainder(w):
        return lh(w) - 2.0 * (k / (w * w - p2)).real

    closed = (-2.0 * math.pi * (c * cmath.exp(1j * p * tau)).imag
              - _pole_pair_tail(c, p, tau, upper))
    # the remainder is O(gamma) of the value, so its error is judged against
    # the closed-form part too; the 1/50 offsets the slack of integrate_panels,
    # so the bound is rel_tol of the whole value.  No panel edge at w0: the
    # remainder is smooth there, and an edge would add two boundary terms
    # ~ 1/tau that cancel to the last digits of a value decayed at large tau
    rcfg = replace(cfg, abs_tol=max(cfg.abs_tol / scale, cfg.rel_tol * abs(closed) / 50.0))
    value, _ = integrate_panels(remainder, edges, rcfg, tau=tau, tail_to_inf=tail_to_inf,
                                label=label)
    return closed + value


def _correlation(tau, system, bath, cfg, velocity):
    if not bath.gamma > 0:
        raise DomainError("bath damping must be positive")
    tau = abs(float(tau))
    m, w0, a, gamma = system.mass, system.omega0, system.thermal_coth_scale, bath.gamma
    label = "velocity correlation" if velocity else "position correlation"
    power = 3 if velocity else 1
    upper = math.inf if cfg.omega_max is None else cfg.omega_max

    def h(z):
        return z**power / cmath.tanh(a * z)

    if bath.kind is BathKind.STRICT_OHMIC:
        if velocity and math.isinf(upper):
            raise UVDivergenceError(
                "velocity correlation is UV-divergent for a strict-Ohmic "
                "bath (log at tau = 0); set a finite omega_max"
            )
        if w0 == 0.0 and not velocity:
            raise DomainError("the position correlation of a free particle "
                              "(omega0 = 0) diverges at low frequency")

        def lh(w):  # L h in scalar math; scaled_omega_coth costs ~13 us a call
            x = a * w
            wcoth = (1.0 + x * x / 3.0 - x**4 / 45.0) / a if x < 1e-4 else w / math.tanh(x)
            w2 = w * w
            den = (w0 * w0 - w2) ** 2 + gamma * gamma * w2
            # den = 0 only at w = 0 for a free particle, where L h -> 1/(m a gamma)
            return (gamma / m) * (w ** (power - 1) * wcoth) / den if den else 1.0 / (m * a * gamma)

        # one panel: the remainder is smooth
        pole, tail, bound = _ohmic_pole(m, w0, gamma), math.isinf(upper), None
        edges = [0.0] if tail else [0.0, upper]
    else:
        s = Susceptibility(system, bath)

        def lh(w):
            return w ** (power - 1) * s.loss(w) * scaled_omega_coth(w, a)

        # below the cutoff the loss is the resonance plus a smooth part that
        # falls to zero at the cutoff like 1/ln^2, which geometric shoulders
        # resolve; above it the loss is the bound-state delta, in closed form
        cut = bath.cutoff
        upper = min(cut, upper)
        shoulders = cut * (1.0 - 10.0 ** -np.arange(1, 9))
        edges = [0.0, *shoulders[shoulders < upper], upper]
        pole, tail, bound = s.resonance_pole(), False, s.bound_state()
    # abs_tol bounds C itself, which is hbar/pi times the frequency integral
    value = _pole_pair_integral(lh, h, pole, tau, edges, cfg, label, tail_to_inf=tail,
                                scale=system.hbar / math.pi)
    if bound is not None and (cfg.omega_max is None or bound[0] <= cfg.omega_max):
        wb, weight = bound
        value += (weight * (wb**2 if velocity else 1.0) * scaled_omega_coth(wb, a)
                  * math.cos(wb * tau))
    return (system.hbar / math.pi) * value


def position_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None):
    """Symmetrized position autocorrelation C_x(tau).

    The closed-form term of the resonance pole pair, which is the
    weak-coupling limit (hbar / 2 m w0) coth(hbar w0 / 2 kB T) cos(w0 tau)
    plus O(gamma), and a quadrature of the smooth remainder: for strict
    Ohmic up to ``cfg.omega_max`` (to infinity when None; the integrand
    decays like 1/omega^3), for a cutoff bath up to the cutoff, plus the
    closed-form term of its bound state above it.  ``cfg.abs_tol`` bounds
    the error of C itself.  Even in tau by construction.  Raises
    DomainError for a free particle (omega0 = 0) on a strict-Ohmic bath,
    whose position correlation diverges.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, velocity=False)


def velocity_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None):
    """Symmetrized velocity autocorrelation C_v(tau).

    As :func:`position_correlation`, with the weak-coupling limit
    (hbar w0 / 2 m) coth(hbar w0 / 2 kB T) cos(w0 tau).  A strict-Ohmic
    bath requires a finite ``cfg.omega_max``: the remainder decays only
    like 1/omega, so the result depends logarithmically on that cutoff at
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
