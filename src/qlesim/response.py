"""The oscillator's loss Im alpha(omega) / omega, its resonance pole and bound state.

The oscillator response to a force at frequency omega is

    alpha(omega) = 1 / (m*(omega0^2 - omega^2) - i*omega*mu(omega))

with mu(omega) the one-sided Fourier transform of the friction kernel,
elementary for both continuum baths: m*gamma for strict Ohmic, and for the
cutoff-Ohmic sinc kernel Re mu = m*gamma below the cutoff Omega, half that
at it and zero above, with Im mu = (m*gamma/pi) ln|(Omega+omega)/(Omega-omega)|.
Above the cutoff alpha is therefore real except at one bound state omega_b
(Ullersma, Physica 32, 27 (1966)), whose delta-function loss
:meth:`Susceptibility.bound_state` gives.  For both baths the resonance peak
comes from one pole of the continued loss, :meth:`Susceptibility.resonance_pole`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathKind, BathSpec, SystemSpec
from .errors import DomainError, QuadratureError

__all__ = ["Susceptibility"]


def _half_amplitude(bath: BathSpec) -> float:
    """A/2 of the sinc kernel A*sin(Omega t)/t, i.e. m*gamma/pi."""
    return 1.5 * bath.coupling**2 / bath.cutoff**3


def _over(re, den, w):
    """re / den, or DomainError where den, |1/alpha| or its square, is 0."""
    if not den.all():
        raise DomainError(f"loss at omega = {w[den == 0.0].flat[0]!r}: |1/alpha| is 0")
    return re / den


@dataclass(frozen=True, eq=False)
class Susceptibility:
    """alpha(omega) of the oscillator on a continuum bath, in closed form.

    For both baths :attr:`loss` gives the loss Im(alpha)/omega at real
    frequencies from the exact (untruncated) friction transform, and
    :meth:`resonance_pole` continues it off the real axis.  For a cutoff
    bath the loss is zero above the cutoff apart from the bound-state
    delta, which :meth:`bound_state` gives separately.
    """

    system: SystemSpec
    bath: BathSpec

    def __post_init__(self):
        self.bath.check_system(self.system)

    @cached_property
    def loss(self):
        """Im alpha(w) / w on an array of w, for quadrature integrands.

        A closure over the bath's constants, built once.  Regular at w = 0
        and nonnegative, it is the natural integrand factor of every
        fluctuation integral; dividing out w analytically avoids the 0/0 at
        the origin.  The bound-state delta is not included.  Raises
        DomainError where |1/alpha| is 0 in floating point, as for a free
        particle on either bath at w = 0.
        """
        m, w02 = self.system.mass, self.system.omega0**2
        if self.bath.kind is BathKind.STRICT_OHMIC:
            g = self.bath.gamma  # Re mu = m gamma, Im mu = 0
            g_m = g / m

            def loss(w):  # m divided out: m^2 (w0^2 - w^2)^2 would overflow at large m
                w = np.asarray(w, dtype=float)
                with np.errstate(over="ignore"):  # the loss is 0 where its denominator overflows
                    d, e = w02 - w * w, g * w
                    return _over(g_m, d * d + e * e, w)
        else:
            cut, k = self.bath.cutoff, _half_amplitude(self.bath)
            re = k * math.pi  # Re mu below the cutoff

            def loss(w):  # zero at and above the cutoff
                w = np.asarray(w, dtype=float)
                inside = np.abs(w) < cut
                x = np.where(inside, np.abs(w), 0.0)
                im = np.copysign(k, w) * np.log((cut + x) / (cut - x))
                with np.errstate(over="ignore"):  # hypot: |1/alpha|^2 overflows at large m
                    h = np.where(inside, np.hypot(m * (w02 - w * w) + w * im, w * re), math.inf)
                    return _over(re, h, w) / h

        return loss

    def resonance_pole(self):
        """(p, fbar'(p)) of the pole carrying the resonance peak, or None.

        Off the real axis the loss continues as (1/f - 1/fbar) / (2 i z),
        fbar(z) = m (w0^2 - z^2) + i z mubar(z).  Strict Ohmic has mubar =
        m gamma, p = w_d + i gamma/2 and fbar'(p) = -2 m w_d.  Below a cutoff
        mubar(z) = m gamma - i (m gamma / pi) ln((Omega + z) / (Omega - z)),
        and Newton's method from w0 + i gamma/2 finds p.  None when gamma > w0
        (the peak is no narrower than w0, so panels resolve it, as they do
        the overdamped Lorentzian at w = 0), and when w0 >= Omega (no peak
        below the cutoff).  Raises QuadratureError when Newton's method does
        not converge, rather than lose the pole.
        """
        m, w0, g, cut = self.system.mass, self.system.omega0, self.bath.gamma, self.bath.cutoff
        if g > w0:
            return None
        if self.bath.kind is BathKind.STRICT_OHMIC:
            wd = math.sqrt(w0 * w0 - 0.25 * g * g)
            return complex(wd, 0.5 * g), complex(-2.0 * m * wd)
        if not w0 < cut:
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
        when omega_b - Omega underflows (w then vanishes as well).  Raises
        DomainError where D overflows on the bracket (gamma ~ 1e250 at Omega = 3).
        """
        if self.bath.kind is not BathKind.CUTOFF_OHMIC:
            return None
        from scipy.optimize import brentq

        m, w0, cut = self.system.mass, self.system.omega0, self.bath.cutoff
        k = _half_amplitude(self.bath)

        def excess(u):  # D(Omega + e^u), with the log's small gap taken as e^u
            w = cut + math.exp(u)
            return m * (w0**2 - w**2) + k * w * (math.log(cut + w) - u)

        # omega ln((omega + Omega)/(omega - Omega)) <= 4 Omega once
        # omega - Omega >= Omega, so D < 0 at the upper end of the bracket
        lo = math.log(sys.float_info.min)
        hi = math.log(max(cut, math.sqrt(w0**2 + 4.0 * k * cut / m)))
        if not math.isfinite(excess(lo) + excess(hi)):
            raise DomainError(f"bound state: D overflows on its bracket (gamma = "
                              f"{self.bath.gamma:.3g}, cutoff = {cut:.3g})")
        if not excess(lo) > 0.0:
            return None
        u = brentq(excess, lo, hi, xtol=1e-15)
        wb = cut + math.exp(u)
        slope = (2.0 * m * wb - k * (math.log(cut + wb) - u)
                 + 2.0 * k * wb * cut / ((cut + wb) * math.exp(u)))  # -D'(omega_b)
        return wb, math.pi / (wb * slope)
