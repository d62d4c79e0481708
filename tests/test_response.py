"""Friction transform and generalized susceptibility."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import sici

from qlesim.bath import BathSpec, ModeSet, SystemSpec
from qlesim.errors import UnsupportedBathError
from qlesim.quadrature import QuadratureConfig, integrate_panels, resonance_edges
from qlesim.response import Susceptibility, mu_fourier, susceptibility


def truncated_transform_oracle(bath, omega, t_max_factor):
    """Sine/cosine-integral closed form of the truncated sinc transform.

    Independent of the quadrature path: the product-to-sum split gives
    Si at the sum/difference frequencies for the real part and the
    entire-function Cin for the imaginary part.
    """
    amp = 3.0 * bath.mode_coupling**2 / (bath.mode_mass * bath.cutoff**3)
    t_max = t_max_factor / bath.cutoff
    a_plus = bath.cutoff + omega
    a_minus = bath.cutoff - omega

    def si(x):
        s, _ = sici(abs(x))
        return math.copysign(s, x)

    def cin(x):
        if x == 0.0:
            return 0.0
        _, c = sici(abs(x))
        return np.euler_gamma + math.log(abs(x)) - c

    re = 0.5 * amp * (si(a_plus * t_max) + si(a_minus * t_max))
    im = 0.5 * amp * (cin(a_plus * t_max) - cin(abs(a_minus) * t_max))
    return complex(re, im)


def truncated_transform_quadrature(bath, omega, t_max_factor):
    """Direct quadrature of the truncated sinc transform, independent of sici.

    Product-to-sum split: a short head by plain quadrature, the rest as
    sin(a t)/t and cos(a t)/t at the sum and difference frequencies by
    the oscillatory (QAWO) rule.
    """
    amp = 3.0 * bath.mode_coupling**2 / (bath.mode_mass * bath.cutoff**3)
    cut = bath.cutoff
    t_max = t_max_factor / cut
    a_plus, a_minus = cut + abs(omega), cut - abs(omega)
    t_split = 0.5 / a_plus

    def over_t(weight, a):
        if a == 0.0:
            return 0.0 if weight == "sin" else math.log(t_max / t_split)
        val, _ = integrate.quad(lambda t: 1.0 / t, t_split, t_max, weight=weight,
                                wvar=abs(a), limit=300, maxp1=100)
        return math.copysign(val, a) if weight == "sin" else val

    re, _ = integrate.quad(lambda t: math.sin(cut * t) * math.cos(omega * t) / t,
                           0.0, t_split, limit=100)
    re += 0.5 * (over_t("sin", a_plus) + over_t("sin", a_minus))
    im, _ = integrate.quad(lambda t: math.sin(cut * t) * math.sin(abs(omega) * t) / t,
                           0.0, t_split, limit=100)
    im += 0.5 * (over_t("cos", a_minus) - over_t("cos", a_plus))
    return complex(amp * re, math.copysign(amp * im, omega))


class TestMuFourier:
    def test_strict_is_m_gamma_exactly(self):
        bath = BathSpec.strict_ohmic(0.7)
        for omega in (0.0, 1.0, -3.0, 100.0):
            assert mu_fourier(bath, omega, system_mass=2.0) == complex(1.4, 0.0)

    def test_cutoff_matches_sine_integral_oracle(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0)
        for omega in (0.0, 0.5, 1.0, 5.0, 9.9, 10.1, 15.0, 100.0):
            got = mu_fourier(bath, omega)
            want = truncated_transform_oracle(bath, omega, 1e4)
            assert got == pytest.approx(want, rel=1e-10)

    def test_real_part_approaches_m_gamma_below_cutoff(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0, system_mass=1.0)
        got = mu_fourier(bath, 0.0, t_max_factor=1e4)
        assert got.real == pytest.approx(0.2, rel=1e-2)

    def test_tail_decay_above_cutoff(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0)
        near = abs(mu_fourier(bath, 0.5 * bath.cutoff))
        far = abs(mu_fourier(bath, 10.0 * bath.cutoff))
        assert far < 0.2 * near

    def test_hermitian_symmetry(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0)
        plus = mu_fourier(bath, 3.0)
        minus = mu_fourier(bath, -3.0)
        assert minus == pytest.approx(plus.conjugate(), rel=1e-12)

    def test_discrete_unsupported(self):
        modes = ModeSet(omega=[1.0], mass=[1.0], coupling=[1.0])
        with pytest.raises(UnsupportedBathError):
            mu_fourier(BathSpec.discrete(modes, 1.0), 1.0)

    def test_untruncated_transform_is_elementary(self):
        # Re mu = m gamma below the cutoff, half of it at the cutoff, 0 above;
        # Im mu = (m gamma / pi) ln|(cutoff + omega) / (cutoff - omega)|
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0, system_mass=1.5)
        m_gamma = 1.5 * 0.2
        for omega in (0.0, 1.0, -3.0, 5.0, 9.9, 10.1, -15.0, 100.0):
            got = mu_fourier(bath, omega, t_max_factor=math.inf)
            re = m_gamma if abs(omega) < 10.0 else 0.0
            im = m_gamma / math.pi * math.log(abs((10.0 + omega) / (10.0 - omega)))
            assert got == pytest.approx(complex(re, im), rel=1e-13, abs=1e-15)
        at_cut = mu_fourier(bath, 10.0, t_max_factor=math.inf)
        assert at_cut.real == pytest.approx(0.5 * m_gamma, rel=1e-15)
        assert at_cut.imag == math.inf

    def test_truncated_transform_matches_direct_quadrature(self):
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0)
        for omega in (0.0, 1.0, 5.0, 15.0):
            want = truncated_transform_quadrature(bath, omega, 1e4)
            assert mu_fourier(bath, omega) == pytest.approx(want, rel=1e-9)


class TestSusceptibility:
    def test_static_response(self):
        sys_ = SystemSpec(mass=2.0, omega0=3.0)
        bath = BathSpec.strict_ohmic(0.5)
        alpha = susceptibility(sys_, bath, 0.0)
        assert alpha == pytest.approx(1.0 / (2.0 * 9.0), rel=1e-15)

    def test_resonance_purely_imaginary(self):
        sys_ = SystemSpec(mass=1.5, omega0=2.0)
        bath = BathSpec.strict_ohmic(0.3)
        alpha = susceptibility(sys_, bath, 2.0)
        expected = 1j / (1.5 * 2.0 * 0.3)
        assert alpha == pytest.approx(expected, rel=1e-14)

    def test_im_alpha_closed_form(self):
        sys_ = SystemSpec(mass=1.5, omega0=2.0)
        bath = BathSpec.strict_ohmic(0.3)
        susc = Susceptibility(sys_, bath)
        omega = np.linspace(0.1, 6.0, 40)
        expected = (1.0 / 1.5) * omega * 0.3 / (
            (4.0 - omega**2) ** 2 + (omega * 0.3) ** 2
        )
        np.testing.assert_allclose(susc.im_alpha(omega), expected, rtol=1e-13)

    def test_reality_condition_exact(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(0.2)
        for omega in (0.3, 1.0, 4.7):
            plus = susceptibility(sys_, bath, omega)
            minus = susceptibility(sys_, bath, -omega)
            assert minus == plus.conjugate()

    def test_passivity_on_log_grid(self):
        sys_ = SystemSpec()
        for bath in (BathSpec.strict_ohmic(0.05),
                     BathSpec.cutoff_ohmic(gamma=0.05, cutoff=8.0)):
            susc = Susceptibility(sys_, bath)
            omega = np.geomspace(1e-3, 1e3, 121)
            assert np.all(susc.im_alpha(np.minimum(omega, 2 * 8.0)) >= 0)

    def test_kramers_kronig_at_zero(self):
        # (2/pi) Int Im[alpha]/w dw reproduces Re alpha(0) = 1/(m w0^2)
        sys_ = SystemSpec(mass=1.3, omega0=1.7)
        bath = BathSpec.strict_ohmic(0.04)
        susc = Susceptibility(sys_, bath)
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)
        edges = resonance_edges(1.7, 0.04, 20.0, upper=1.7 + 40 * 0.04)
        val, _ = integrate_panels(susc.loss, edges, cfg, tail_to_inf=True,
                                  label="kramers-kronig")
        static = (2.0 / math.pi) * val
        assert static == pytest.approx(1.0 / (1.3 * 1.7**2), rel=1e-6)

    def test_grid_cache_matches_direct_transform(self):
        sys_ = SystemSpec()
        bath = BathSpec.cutoff_ohmic(gamma=0.4, cutoff=6.0)
        susc = Susceptibility(sys_, bath)
        for omega in (0.2, 1.0, 3.0, 5.5):
            direct = susceptibility(sys_, bath, omega)
            cached = susc.alpha(omega)
            assert cached == pytest.approx(direct, rel=2e-3)

    def test_loss_regular_at_origin(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(0.3)
        susc = Susceptibility(sys_, bath)
        assert susc.loss(0.0) == pytest.approx(0.3 / 1.0, rel=1e-14)

    def test_discrete_rejected(self):
        modes = ModeSet(omega=[1.0], mass=[1.0], coupling=[1.0])
        with pytest.raises(UnsupportedBathError):
            Susceptibility(SystemSpec(), BathSpec.discrete(modes, 1.0))

    def test_cutoff_loss_vanishes_at_and_above_cutoff(self):
        susc = Susceptibility(SystemSpec(), BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0))
        np.testing.assert_array_equal(susc.loss(np.array([3.0, 3.5, 10.0, 1e3])), 0.0)
        assert susc.alpha(3.0) == 0.0
        assert susc.mu(-3.0).imag == -math.inf


class TestBoundState:
    def test_strict_ohmic_has_none(self):
        assert Susceptibility(SystemSpec(), BathSpec.strict_ohmic(0.5)).bound_state() is None

    @pytest.mark.parametrize("gamma,cutoff,omega0", [(0.5, 1.5, 1.0), (0.1, 0.8, 1.0),
                                                     (2.0, 3.0, 1.0), (1.0, 3.0, 0.0)])
    def test_zero_of_real_denominator_and_its_weight(self, gamma, cutoff, omega0):
        sys_ = SystemSpec(mass=1.3, omega0=omega0)
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff, system_mass=1.3)
        susc = Susceptibility(sys_, bath)
        wb, weight = susc.bound_state()

        def d(w):  # Re(1/alpha) above the cutoff
            return 1.3 * (omega0**2 - w**2) + w * susc.mu(w).imag

        assert wb > cutoff
        h = 1e-4 * (wb - cutoff)
        slope = (d(wb + h) - d(wb - h)) / (2.0 * h)
        # D is steep near the cutoff: allow a few rounding steps of omega_b
        assert abs(d(wb)) < 4.0 * abs(slope) * np.spacing(wb)
        assert weight == pytest.approx(math.pi / (wb * abs(slope)), rel=1e-6)

    def test_none_when_the_gap_underflows(self):
        # ln((w + cutoff)/(w - cutoff)) ~ pi (w^2 - w0^2) / (gamma w) puts
        # omega_b - cutoff near exp(-8e4) at gamma = 1e-4
        bath = BathSpec.cutoff_ohmic(gamma=1e-4, cutoff=3.0)
        assert Susceptibility(SystemSpec(), bath).bound_state() is None
