"""Fourier-domain friction and the generalized susceptibility.

The oscillator response to a force at frequency omega is

    alpha(omega) = 1 / (m*(omega0^2 - omega^2) - i*omega*mu(omega))

with mu(omega) the one-sided Fourier transform of the friction kernel,
closed-form for both continuum baths: m*gamma for strict Ohmic, and for
the cutoff-Ohmic kernel A*sin(Omega t)/t cut off at t = T, with
a+- = Omega +- |omega|,

    Re mu = (A/2) [Si(a+ T) + sgn(a-) Si(|a-| T)]
    Im mu = sgn(omega) (A/2) [ln(a+/|a-|) - Ci(a+ T) + Ci(|a-| T)]

As T -> inf, Re mu is m*gamma below the cutoff, half that at it and zero
above, and Im mu = (m*gamma/pi) ln|(Omega+omega)/(Omega-omega)|.  Above
the cutoff alpha is therefore real except at one bound state omega_b
(Ullersma, Physica 32, 27 (1966)), whose delta-function loss
:meth:`Susceptibility.bound_state` gives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathKind, BathSpec, SystemSpec
from .errors import DomainError, QuadratureError, UnsupportedBathError

__all__ = ["mu_fourier", "susceptibility", "Susceptibility"]

# minimum length of the truncated transform, in units of 1/cutoff
_MIN_TMAX_FACTOR = 1e3


def _half_amplitude(bath: BathSpec) -> float:
    """A/2 of the sinc kernel A*sin(Omega t)/t, i.e. m*gamma/pi."""
    return 1.5 * bath.mode_coupling**2 / (bath.mode_mass * bath.cutoff**3)


def _sinc_transform(bath: BathSpec, omega, t_max):
    """(Re mu, Im mu) of the sinc kernel cut off at t_max (may be inf)."""
    from scipy.special import sici

    a_plus, a_minus = bath.cutoff + np.abs(omega), bath.cutoff - np.abs(omega)
    at_cut = a_minus == 0.0
    gap = np.where(at_cut, 1.0, np.abs(a_minus))  # stand-in at the cutoff
    si_plus, ci_plus = sici(a_plus * t_max)
    si_minus, ci_minus = sici(gap * t_max)
    re = si_plus + np.sign(a_minus) * si_minus
    # at the cutoff ln(a+/|a-|) + Ci(|a-| T) tends to ln(a+ T) + Euler's gamma
    im = np.where(at_cut, np.log(a_plus * t_max) + np.euler_gamma,
                  np.log(a_plus / gap) + ci_minus) - ci_plus
    half_amp = _half_amplitude(bath)
    return half_amp * re, half_amp * np.sign(omega) * im


def mu_fourier(bath: BathSpec, omega, *, system_mass: float = 1.0, t_max_factor: float = 1e4):
    """One-sided Fourier transform of the friction kernel at real omega.

    Strict Ohmic returns the exact constant ``system_mass * gamma`` (half
    the delta mass falls inside t >= 0).  Cutoff Ohmic transforms the sinc
    kernel over [0, T_max], T_max = t_max_factor / Omega with
    t_max_factor >= 1e3, in closed form; ``t_max_factor=math.inf`` gives
    the exact transform.  The transform is Hermitian in omega.  Discrete
    baths have no pointwise transform on the real axis.
    """
    omega = float(omega)
    if bath.kind is BathKind.STRICT_OHMIC:
        return complex(system_mass * bath.gamma, 0.0)
    if bath.kind is BathKind.DISCRETE:
        raise UnsupportedBathError(
            "discrete-bath friction transform is a principal-value comb; "
            "not supported pointwise"
        )
    if not t_max_factor >= _MIN_TMAX_FACTOR:
        raise DomainError(f"t_max_factor must be >= {_MIN_TMAX_FACTOR:g}")
    return complex(*_sinc_transform(bath, omega, t_max_factor / bath.cutoff))


def susceptibility(system: SystemSpec, bath: BathSpec, omega):
    """Generalized susceptibility alpha(omega) for a single frequency."""
    return Susceptibility(system, bath).alpha(float(omega))


@dataclass(frozen=True, eq=False)
class Susceptibility:
    """alpha(omega) of the oscillator on a continuum bath, in closed form.

    Every method is vectorized over omega and evaluates the exact
    (untruncated) friction transform pointwise.  For a cutoff-Ohmic bath
    the loss Im(alpha)/omega is zero above the cutoff apart from the
    delta at the bound state, which :meth:`bound_state` gives separately.
    """

    system: SystemSpec
    bath: BathSpec

    def __post_init__(self):
        if self.bath.kind is BathKind.DISCRETE:
            raise UnsupportedBathError("no pointwise susceptibility for discrete baths")

    def _transform(self, omega):
        """(Re mu, Im mu) of the exact friction transform."""
        if self.bath.kind is BathKind.STRICT_OHMIC:
            return np.full_like(omega, self.system.mass * self.bath.gamma), np.zeros_like(omega)
        return _sinc_transform(self.bath, omega, math.inf)

    def _parts(self, omega):
        """(D, E, Re mu) with 1/alpha = D - i*E, E = omega * Re mu."""
        re, im = self._transform(omega)
        d = self.system.mass * (self.system.omega0**2 - omega**2) + omega * im
        return d, omega * re, re

    def mu(self, omega):
        """Exact friction transform mu(omega); Im mu is +inf at the cutoff."""
        re, im = self._transform(np.asarray(omega, dtype=float))
        out = np.array(re, dtype=complex)
        out.imag = im
        return out if out.ndim else complex(out)

    def alpha(self, omega):
        """Complex susceptibility, vectorized over omega (zero at the cutoff)."""
        omega = np.asarray(omega, dtype=float)
        d, e, _ = self._parts(omega)
        if np.any((d == 0) & (e == 0)):
            raise DomainError("undamped resonance: susceptibility pole at omega0")
        out = 1.0 / (d - 1j * e)
        return out if out.ndim else complex(out)

    def im_alpha(self, omega):
        out = np.imag(self.alpha(omega))
        return out if np.ndim(out) else float(out)

    def loss(self, omega):
        """Im alpha(omega) / omega, regular at omega = 0 and nonnegative.

        This is the natural integrand factor of every fluctuation
        integral; dividing out omega analytically avoids the 0/0 at the
        origin.  The bound-state delta is not included.
        """
        omega = np.asarray(omega, dtype=float)
        if self.bath.kind is BathKind.STRICT_OHMIC:
            m, w0, g = self.system.mass, self.system.omega0, self.bath.gamma
            out = (g / m) / ((w0**2 - omega**2) ** 2 + (omega * g) ** 2)
            return out if out.ndim else float(out)
        d, e, re = self._parts(omega)
        out = re / (d**2 + e**2)
        return out if out.ndim else float(out)

    def resonance_pole(self):
        """(p, fbar'(p)) of the resonance of a cutoff-Ohmic bath, or None.

        Off the real axis the loss continues as (1/f - 1/fbar) / (2 i z),
        fbar(z) = m (w0^2 - z^2) + i z mubar(z), and below the cutoff
        mubar(z) = m gamma - i (m gamma / pi) ln((Omega + z) / (Omega - z)).
        The zero p of fbar near w0 + i gamma/2, found by Newton's method
        from there, is the pole carrying the resonance peak.  None for other
        baths, when gamma > w0 and when w0 >= Omega (no peak below the
        cutoff).  Raises QuadratureError when Newton's method does not
        converge, rather than lose the pole.
        """
        if self.bath.kind is not BathKind.CUTOFF_OHMIC:
            return None
        m, w0, g, cut = self.system.mass, self.system.omega0, self.bath.gamma, self.bath.cutoff
        if g > w0 or not w0 < cut:
            return None
        k = _half_amplitude(self.bath)  # m gamma / pi

        def fbar(z):  # (fbar(z), fbar'(z))
            mub = k * (math.pi - 1j * cmath.log((cut + z) / (cut - z)))
            dmub = -2j * k * cut / (cut * cut - z * z)
            return m * (w0 * w0 - z * z) + 1j * z * mub, -2.0 * m * z + 1j * (mub + z * dmub)

        z = complex(w0, 0.5 * g)
        for _ in range(50):
            value, slope = fbar(z)
            step = value / slope
            z -= step
            if abs(step) <= 1e-14 * abs(z):
                return z, fbar(z)[1]
        raise QuadratureError(f"no resonance pole found near {complex(w0, 0.5 * g)} "
                              f"(Newton's method stopped at {z})")

    def bound_state(self):
        """(omega_b, w) such that the loss holds w * delta(omega - omega_b).

        Above the cutoff Re mu = 0, and D = Re(1/alpha) falls strictly from
        +inf at Omega to -inf, so it has exactly one zero omega_b; there
        w = pi / (omega_b |D'(omega_b)|).  None for strict-Ohmic baths and
        when omega_b - Omega underflows (w then vanishes as well).
        """
        from scipy.optimize import brentq

        if self.bath.kind is not BathKind.CUTOFF_OHMIC:
            return None
        m, w0, cut = self.system.mass, self.system.omega0, self.bath.cutoff
        k = _half_amplitude(self.bath)

        def excess(u):  # D(Omega + e^u), with the log's small gap taken as e^u
            w = cut + math.exp(u)
            return m * (w0**2 - w**2) + k * w * (math.log(cut + w) - u)

        # omega ln((omega + Omega)/(omega - Omega)) <= 4 Omega once
        # omega - Omega >= Omega, so D < 0 at the upper end of the bracket
        lo = math.log(np.finfo(float).tiny)
        hi = math.log(max(cut, math.sqrt(w0**2 + 4.0 * k * cut / m)))
        if not excess(lo) > 0.0:
            return None
        u = brentq(excess, lo, hi, xtol=1e-15)
        wb = cut + math.exp(u)
        slope = (2.0 * m * wb - k * (math.log(cut + wb) - u)
                 + 2.0 * k * wb * cut / ((cut + wb) * math.exp(u)))  # -D'(omega_b)
        return wb, math.pi / (wb * slope)
