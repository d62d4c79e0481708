"""Fluctuation-dissipation quadrature for the damped oscillator.

Steady-state symmetrized correlations follow from the susceptibility via

    C_x(tau)  = (hbar/pi) * Int_0^inf  L(w) * u(w) * cos(w tau) dw
    C_v(tau)  = (hbar/pi) * Int_0^inf  w^2 * L(w) * u(w) * cos(w tau) dw

with L(w) = Im[alpha(w)]/w and u(w) = w*coth(hbar w / 2 kB T), both regular
at w = 0.  The position integral converges absolutely; the velocity
integrand decays only like 1/w for a strict-Ohmic bath, so its equal-time
value is log-divergent and an explicit frequency cutoff is required.

Both continuum baths share one integrand, with L from one
:class:`~qlesim.response.Susceptibility`, and take its narrow peak from
the pole pair of L near w0 + i gamma/2 that ``resonance_pole`` gives.  Its
residues give a closed-form resonance term, the weak-coupling limit plus
O(gamma), and quadrature integrates only the smooth O(gamma) remainder
(Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)).  The remainder
does not depend on tau: one call resolves it once and integrates it
against cos(w tau) for a whole array of tau
(:func:`~qlesim.quadrature.integrate_cosine`).

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
from .errors import DomainError, QuadratureError, UVDivergenceError
from .quadrature import _TAU_BLOCK, QuadratureConfig, integrate_cosine, scaled_omega_coth
from .response import Susceptibility

__all__ = [
    "EnergySplit",
    "pk_density",
    "pp_density",
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
_TAIL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])  # of the four E1 terms of a pole pair's tail


@dataclass(frozen=True)
class EnergySplit:
    """Kinetic and potential channel energies, Ek = m*C_v(0), Ep = m*w0^2*C_x(0)."""

    ek: float
    ep: float


def _check_gamma(damping):
    if not damping > 0:
        raise DomainError("dimensionless damping must be positive")


def pk_density(lam, damping):
    """Dimensionless kinetic-energy density (2/pi) L^2 G / ((1-L^2)^2 + (L G)^2).

    Above L = 1 it takes the form (2/pi) G / ((1/L - L)^2 + G^2), whose
    square overflows only where the density is below the smallest float:
    L^2 and (1 - L^2)^2 overflow from L = 1.2e77.
    """
    _check_gamma(damping)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("lam must be nonnegative")
    low = lambda x: (2.0 / math.pi) * x**2 * damping / ((1.0 - x**2) ** 2 + (x * damping) ** 2)
    high = lambda x: (2.0 / math.pi) * damping / ((1.0 / x - x) ** 2 + damping**2)
    with np.errstate(over="ignore"):
        out = np.piecewise(lam, [lam > 1.0], [high, low])
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
    with np.errstate(over="ignore"):  # (1 - L^2)^2 overflows from L = 1.2e77, where Pp is 0
        out = (2.0 / math.pi) * damping / ((1.0 - lam**2) ** 2 + (lam * damping) ** 2)
    return out if out.ndim else float(out)


def density_normalization(which, damping, cfg: QuadratureConfig | None = None):
    """Integral of the dimensionless density over [0, inf); equals 1."""
    return density_moment(which, 0, damping, math.inf, cfg)


def density_moment(which, order, damping, window=DEFAULT_MOMENT_WINDOW,
                   cfg: QuadratureConfig | None = None):
    """Moment Int_0^window Lambda^order * P(Lambda) dLambda.

    The kinetic density has slowly decaying tails (its first moment is
    log-divergent, its second linearly divergent on [0, inf)), so those
    need a finite window; window = inf raises, and elsewhere stands for a
    finite one whose omitted tail is within ``cfg.abs_tol``.  In the
    delta-function limit both densities concentrate at Lambda = 1 and every
    windowed moment tends to 1.  P_p is (2/pi) L with m = w0 = 1 and gamma =
    damping, and P_k = Lambda^2 P_p, so the pole-pair weight is h = (2/pi)
    Lambda^n, n = order (+2 for P_k).  For n >= 1 raises DomainError where
    (1 - window^2)^2 + (damping * window)^2 overflows: the loss reads 0 there.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    if which not in ("k", "p"):
        raise DomainError("which must be 'k' or 'p'")
    n = order + (2 if which == "k" else 0)  # the integrand decays like Lambda^(n-4)
    if not window > 1 or (math.isinf(window) and n > 2):
        raise DomainError("window must exceed 1, the resonance, and be finite "
                          "where the moment diverges")
    _check_gamma(damping)
    cfg = cfg or QuadratureConfig()
    if math.isinf(window):
        window = _finite_upper(1.0, damping, 2.0 / math.pi, n, cfg.abs_tol)
    d, e = 1.0 - window * window, damping * window  # the loss reads 0 where d^2 + e^2 overflows
    if n and not d * d + e * e < math.inf:
        raise DomainError("the loss's denominator overflows inside the window, where "
                          "this moment's weight is not negligible")
    susc = Susceptibility(SystemSpec(), BathSpec.strict_ohmic(damping))
    return float(_pole_pair_integral(
        lambda x: (2.0 / math.pi) * x**n * susc.loss(x), lambda z: (2.0 / math.pi) * z**n,
        susc.resonance_pole(), np.asarray(0.0), _octaves(1.0, _width(1.0, damping) / 4.0, window),
        cfg, f"P_{which} moment {order}"))


def _exp_e1(z, scaled):
    """e^scaled E1(z) on complex arrays, with e^z E1(z) from its asymptotic series
    -sum_n n! (-1/z)^(n+1) where |Re z| >= 700: there e^z overflows and E1(z) under- or
    overflows; a dozen terms reach rounding, and powers of 1/z, unlike z^12, stay finite."""
    from scipy.special import exp1

    far = np.abs(z.real) >= 700.0
    if not far.any():
        return np.exp(scaled) * exp1(z)
    zf = np.where(far, z, 700.0)
    series = -sum(math.factorial(n) * (-1.0 / zf) ** (n + 1) for n in range(12))
    return np.where(far, series * np.exp(scaled - zf),
                    np.exp(np.where(far, 0.0, scaled)) * exp1(np.where(far, 1.0, z)))


def _pole_pair_tail(c, p, taus, upper):
    """Int_upper^inf 2 Re[c/(w - p) - c/(w + p)] cos(w tau) dw in closed form, for each tau.

    With u = w - q the cosine splits into e^(+-i u tau) / u, whose integrals
    from upper - q are E1(-+i tau (upper - q)); for Im q > 0 the path stays
    off the branch cut of E1 as long as upper > Re q.
    """
    if c == 0:
        return 0.0
    if taus.size > _TAU_BLOCK:  # in blocks, so that the work arrays stay small
        return np.concatenate([_pole_pair_tail(c, p, taus[i:i + _TAU_BLOCK], upper)
                               for i in range(0, taus.size, _TAU_BLOCK)])
    nonzero = np.count_nonzero(taus)
    if nonzero < taus.size:  # tau = 0 takes the log, and the others the E1 pairs
        zero, at_zero = taus == 0.0, 2.0 * (c * cmath.log((upper + p) / (upper - p))).real
        rest = _pole_pair_tail(c, p, np.where(zero, 1.0, taus), upper) if nonzero else 0.0
        return np.where(zero, at_zero, rest)
    # Int cos(w tau) / (w - q) = [e^(i q tau) E1(-z) + e^(-i q tau) E1(z)] / 2 with
    # z = i tau (upper - q), for q = p and -p; e^(+-i q tau) = e^(+-i upper tau) e^(-+z)
    z, scaled = np.multiply.outer(np.array(
        [[-1j * (upper - p), -1j * (upper + p), 1j * (upper - p), 1j * (upper + p)],
         [1j * p, -1j * p, -1j * p, 1j * p]]), taus)
    return (c * (_TAIL_SIGNS @ _exp_e1(z, scaled))).real


def _octaves(centre, low, upper):
    """Edges 0 and centre 2^(j + 1/2) from below ``low`` up to ``upper``: an octave a
    panel, none edged at ``centre``.  Near w0 the remainder is the rounded difference
    of two large terms, and panels closing in on an edge there would resolve it."""
    edge, edges = centre * 2.0 ** (math.floor(math.log2(low / centre)) + 0.5), [0.0]
    while edge < upper:
        edges.append(edge)
        edge *= 2.0
    return (*edges, upper)


def _width(w0, g):
    """w0, or for gamma > 2 w0 > 0 the width kappa = w0 q / (1 + sqrt(1 - q^2)), q = 2 w0 / gamma,
    of the overdamped peak at w = 0, which the octaves must reach; gamma^2 would overflow."""
    q = 2.0 * w0 / g
    return w0 * q / (1.0 + math.sqrt(1.0 - q * q)) if 0.0 < q < 1.0 else w0


def _finite_upper(w0, g, h0, s, tol):
    """W >= 2 w0 where the strict-Ohmic Int_W^inf |L h cos| dw <= tol for every tau, |h| <= h0 w^s:
    above 2 w0, (w^2 - w0^2)^2 >= (9/16) w^4, so L <= (16/9) g w^-4 with g = gamma/m,
    and for s < 3 that tail is at most (16/9) g h0 W^(s-3) / (3 - s)."""
    return max(2.0 * w0, (16.0 / 9.0 * g * h0 / ((3.0 - s) * tol)) ** (1.0 / (3.0 - s)))


def _pole_pair_integral(lh, h, pole, taus, edges, cfg, label, scale=1.0):
    """Int_0^upper L(w) h(w) cos(w tau) dw with the resonance in closed form, for each tau.

    ``lh`` is the real integrand L h and ``h`` the weight, also at complex
    arguments; ``pole`` is (p, fbar'(p)) with fbar(z) the conjugate of the
    continued 1/alpha, or None.  The residue of L h at p is
    c = -h(p) / (2 i p fbar'(p)), and the principal parts of the pole pair
    Q(w) = 2 Re[c/(w - p) - c/(w + p)] carry the whole resonance: over
    [0, inf) they integrate to -2 pi Im[c e^(i p tau)], the weak-coupling
    limit up to O(gamma).  Their tail above the upper limit edges[-1] is
    subtracted in closed form, and quadrature on the panels sees only
    L h - Q, which is smooth on the scale of w0.
    With no pole, or Re p at or above the upper limit, c = 0 and the same
    code integrates L h itself (Grabert, Schramm & Ingold, Phys. Rep. 168,
    115 (1988)).  ``cfg.abs_tol`` bounds ``scale`` times the integral.
    Raises QuadratureError where the two parts cancel: the remainder's
    error bound is over 50 max(abs_tol / scale, rel_tol |value|).
    """
    upper = edges[-1]
    c, p = 0j, 1j
    if pole is not None and pole[0].real < upper:
        p, slope = pole
        c = -h(p) / (2j * p * slope)
    k, p2 = 2.0 * c * p, p * p  # Q(w) = 2 Re[k / (w^2 - p^2)]

    def remainder(w):
        return lh(w) - 2.0 * (k / (w * w - p2)).real

    closed = (-2.0 * math.pi * (c * np.exp(1j * p * taus)).imag
              - _pole_pair_tail(c, p, taus, upper))
    # the remainder is O(gamma) of the value, so it is resolved relative to
    # the closed-form part, the 1/50 offsetting the slack of the check below;
    # once for all tau, so to the smallest of their tolerances
    floor = cfg.abs_tol / scale
    tol = max(floor, cfg.rel_tol * float(np.abs(closed).min()) / 50.0)
    value, err = integrate_cosine(remainder, edges, replace(cfg, abs_tol=tol), taus, label=label)
    total, err = closed + value, err if isinstance(err, float) else float(err.max())
    if err <= 50.0 * max(floor, cfg.rel_tol * float(np.abs(total).min())):
        return total
    raise QuadratureError(f"{label}: the resonance term and the remainder cancel (error "
                          f"bound {err:.3e})", estimate=float(np.ravel(total)[0]), error_bound=err)


def _correlation(tau, system, bath, cfg, velocity):
    if not bath.gamma > 0:
        raise DomainError("bath damping must be positive")
    if system.omega0 == 0.0 and not velocity:
        raise DomainError("the position correlation of a free particle "
                          "(omega0 = 0) diverges at low frequency")
    taus = np.abs(np.asarray(tau, dtype=float))
    a = system.thermal_coth_scale
    label = "velocity correlation" if velocity else "position correlation"
    power = 3 if velocity else 1
    upper = math.inf if cfg.omega_max is None else cfg.omega_max
    s = Susceptibility(system, bath)
    loss = s.loss

    def h(z):
        return z**power / cmath.tanh(a * z)

    def lh(w):
        out = loss(w) * scaled_omega_coth(w, a)
        return w * w * out if velocity else out

    # the remainder varies on the scale of w0 (gamma for a free particle), of
    # an overdamped peak and of the thermal weight's poles at i pi n / a
    centre = system.omega0 or bath.gamma
    low = min(_width(centre, bath.gamma), math.pi / a) / 4.0
    if bath.kind is BathKind.STRICT_OHMIC:
        if math.isinf(upper):  # for C_x, h <= coth(2 a w0) w above 2 w0
            if velocity:
                raise UVDivergenceError("velocity correlation is UV-divergent for a strict-"
                                        "Ohmic bath (log at tau = 0); set a finite omega_max")
            upper = _finite_upper(system.omega0, bath.gamma / system.mass,
                                  1.0 / math.tanh(2.0 * a * system.omega0), 1,
                                  cfg.abs_tol * math.pi / system.hbar)
        elif velocity:  # the loss reads 0 where (w0^2 - w^2)^2 + (gamma w)^2 overflows
            d, e = system.omega0**2 - upper * upper, bath.gamma * upper
            if not d * d + e * e < math.inf:
                raise DomainError("the loss's denominator overflows below omega_max, where "
                                  "the velocity correlation's weight is not negligible")
        edges = _octaves(centre, low, upper)
    else:
        # below the cutoff the loss is the resonance plus a smooth part that
        # falls to zero at the cutoff like 1/ln^2, which geometric shoulders
        # resolve; above it the loss is the bound-state delta, in closed form
        cut = bath.cutoff
        upper = min(cut, upper)
        shoulders = cut * (1.0 - 10.0 ** -np.arange(1, 9))
        edges = (*_octaves(centre, low, min(upper, shoulders[0]))[:-1],
                 *shoulders[shoulders < upper].tolist(), upper)
    bound = s.bound_state()
    # abs_tol bounds C itself, which is hbar/pi times the frequency integral
    value = _pole_pair_integral(lh, h, s.resonance_pole(), taus, edges, cfg, label,
                                scale=system.hbar / math.pi)
    if bound is not None and (cfg.omega_max is None or bound[0] <= cfg.omega_max):
        wb, weight = bound
        value = value + (weight * (wb**2 if velocity else 1.0) * scaled_omega_coth(wb, a)
                         * np.cos(wb * taus))
    out = (system.hbar / math.pi) * value
    return out if out.ndim else float(out)


def position_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None):
    """Symmetrized position autocorrelation C_x(tau), at a float tau or a 1-D array of them.

    The closed-form term of the resonance pole pair, which is the
    weak-coupling limit (hbar / 2 m w0) coth(hbar w0 / 2 kB T) cos(w0 tau)
    plus O(gamma), and a quadrature of the smooth remainder: for strict
    Ohmic up to ``cfg.omega_max`` (when None, up to where the 1/omega^3 tail
    left out is below abs_tol), for a cutoff bath up to the cutoff, plus the
    closed-form term of its bound state above it.  ``cfg.abs_tol`` bounds
    the error of C itself.  Even in tau by construction.  Raises
    DomainError for a free particle (omega0 = 0) on either bath, whose
    position correlation diverges.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, velocity=False)


def velocity_correlation(tau, system: SystemSpec, bath: BathSpec,
                         cfg: QuadratureConfig | None = None):
    """Symmetrized velocity autocorrelation C_v(tau), at a float tau or a 1-D array of them.

    As :func:`position_correlation`, with the weak-coupling limit
    (hbar w0 / 2 m) coth(hbar w0 / 2 kB T) cos(w0 tau).  A strict-Ohmic
    bath requires a finite ``cfg.omega_max``: the remainder decays only
    like 1/omega, so the result depends logarithmically on that cutoff at
    tau = 0 and the caller owns the choice.  Weak-coupling values are
    cutoff-insensitive because the resonance term carries the weight.  Raises DomainError
    on a strict-Ohmic bath where (w0^2 - w^2)^2 + (gamma w)^2 overflows at omega_max.
    """
    cfg = cfg or QuadratureConfig()
    return _correlation(tau, system, bath, cfg, velocity=True)


def weak_limit_correlation(tau, system: SystemSpec):
    """Closed-form weak-coupling (gamma -> 0+) correlations, at a float tau or an array.

    Returns (C_x, C_v) = (hbar/(2 m w0), hbar w0/(2 m)) * coth(hbar w0 / 2 kB T) * cos(w0 tau).
    """
    w0 = system.omega0
    if not w0 > 0:
        raise DomainError("weak-coupling closed form needs omega0 > 0")
    c = float(system.thermal_coth(w0)) * np.cos(w0 * np.asarray(tau, dtype=float))
    cx = system.hbar / (2.0 * system.mass * w0) * c
    cv = system.hbar * w0 / (2.0 * system.mass) * c
    return (cx, cv) if c.ndim else (float(cx), float(cv))


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
