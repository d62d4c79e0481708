"""The loss Im alpha / omega, its resonance pole and bound state."""

import math

import numpy as np
import pytest
from scipy import integrate

from qlesim.bath import BathKind, BathSpec, SystemSpec, friction_kernel
from qlesim.errors import DomainError
from qlesim.quadrature import QuadratureConfig, integrate_cosine
from qlesim.response import Susceptibility


def exact_transform(bath, m, w):
    """(Re mu, Im mu) of the untruncated friction transform, elementary.

    m*gamma for strict Ohmic.  For the sinc kernel Re mu is m*gamma below
    the cutoff, half that at it and zero above, and
    Im mu = (m*gamma/pi) ln|(cutoff + w)/(cutoff - w)|, infinite at the cutoff.
    """
    m_gamma = m * bath.gamma
    if bath.kind is BathKind.STRICT_OHMIC:
        return m_gamma, 0.0
    cut = bath.cutoff
    if abs(w) == cut:
        return 0.5 * m_gamma, math.copysign(math.inf, w)
    re = m_gamma if abs(w) < cut else 0.0
    return re, m_gamma / math.pi * math.log(abs((cut + w) / (cut - w)))


def kernel_transform(bath, w):
    """(Re mu, Im mu) by Fourier quadrature of the kernel itself to infinity.

    QUADPACK's QAWF sums the integral period by period of the weight and
    extrapolates the series; at some w that extrapolation stalls (w = 1.3
    here) or settles on a wrong limit (w = cutoff/3), so a miss there is
    the oracle's, and the frequencies below are ones where it converges.
    """
    parts = [integrate.quad(lambda t: friction_kernel(bath, t), 0.0, np.inf,
                            weight=weight, wvar=w, limlst=100)[0] for weight in ("cos", "sin")]
    return parts[0], parts[1]


def vectorized_loss(bath, m, w0, omega):
    """The loss on an array of 0 <= omega < cutoff, in numpy, from the elementary transform."""
    re = m * bath.gamma
    im = 0.0
    if bath.kind is BathKind.CUTOFF_OHMIC:
        im = re / np.pi * np.log((bath.cutoff + omega) / (bath.cutoff - omega))
    d, e = m * (w0 * w0 - omega * omega) + omega * im, omega * re
    return re / (d * d + e * e)


def loss_from_transform(m, w0, re, im, w):
    """Im alpha / w = Re mu / |m (w0^2 - w^2) + w Im mu - i w Re mu|^2."""
    d, e = m * (w0 * w0 - w * w) + w * im, w * re
    return re / (d * d + e * e)


def cutoff_loss_integral(susc):
    """Int_0^cutoff of the loss, the cutoff's log shoulders on their own panels."""
    cut = susc.bath.cutoff
    edges = [0.0, *(cut * (1.0 - 10.0 ** -np.arange(1, 9))), cut]
    return sum(integrate.quad(susc.loss, a, b, epsabs=1e-15, epsrel=1e-11, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


BATHS = (BathSpec.strict_ohmic(0.3), BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0, system_mass=1.3))


class TestScalarLoss:
    @pytest.mark.parametrize("m", (1.3, 0.7))
    def test_matches_kernel_fourier_quadrature(self, m):
        # mu from the friction kernel, not from any closed form
        bath = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0, system_mass=m)
        susc = Susceptibility(SystemSpec(mass=m, omega0=1.1), bath)
        for w in (0.3, 1.7, 2.2, 2.9):
            want = loss_from_transform(m, 1.1, *kernel_transform(bath, w), w)
            assert susc.loss(w) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("bath", BATHS, ids=("strict", "cutoff"))
    def test_matches_vectorized_loss(self, bath):
        # uniform on (0, 3), plus omega down to 1e-12 (where a thermal weight
        # takes its series branch) and up to 1e-12 below the cutoff
        susc = Susceptibility(SystemSpec(mass=1.3, omega0=1.1), bath)
        near = np.geomspace(1e-12, 1e-3, 500)
        omega = np.concatenate((np.random.default_rng(5).uniform(0.0, 3.0, 9000),
                                near, 3.0 - near))
        got = np.array([susc.loss(float(w)) for w in omega])
        # math.log and numpy's vectorized log may differ by 1 ulp; near the
        # cutoff Re(1/alpha) = m (w0^2 - w^2) + w Im mu cancels to a third of
        # its terms and is squared, which makes that up to 6 ulp of the loss
        np.testing.assert_array_max_ulp(got, vectorized_loss(bath, 1.3, 1.1, omega), maxulp=8)

    def test_zero_at_and_above_the_cutoff(self):
        susc = Susceptibility(SystemSpec(), BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0))
        for omega in (3.0, 3.5, 10.0, 1e3, -3.0):
            assert susc.loss(omega) == 0.0

    def test_zero_denominator_is_a_domain_error(self):
        # a free particle on a strict-Ohmic bath: 1/alpha(0) = 0
        susc = Susceptibility(SystemSpec(omega0=0.0), BathSpec.strict_ohmic(0.5))
        with pytest.raises(DomainError, match="1/alpha"):
            susc.loss(0.0)
        assert susc.loss(1.0) == pytest.approx(0.5 / 1.25, rel=1e-15)


class TestMuFourier:
    """The friction transform mu(omega) as the loss takes it."""

    def test_strict_is_m_gamma_exactly(self):
        # Re mu = m gamma and Im mu = 0 at every omega, bit for bit
        susc = Susceptibility(SystemSpec(mass=2.0, omega0=1.1), BathSpec.strict_ohmic(0.7))
        for omega in (0.0, 1.0, -3.0, 100.0):
            assert susc.loss(omega) == loss_from_transform(2.0, 1.1, 1.4, 0.0, omega)

    def test_hermitian_symmetry(self):
        # the kernel is real, so mu(-w) = conj mu(w); the loss at -w built
        # from the kernel's own transform at -w is loss(-w)
        bath = BATHS[1]
        susc = Susceptibility(SystemSpec(mass=1.3, omega0=1.1), bath)
        for omega in (1.7, 2.2):
            re_plus, im_plus = kernel_transform(bath, omega)
            re_minus, im_minus = kernel_transform(bath, -omega)
            assert complex(re_minus, im_minus) == pytest.approx(complex(re_plus, -im_plus),
                                                                rel=1e-12)
            want = loss_from_transform(1.3, 1.1, re_minus, im_minus, -omega)
            assert susc.loss(-omega) == pytest.approx(want, rel=1e-6)

    def test_untruncated_transform_is_elementary(self):
        # Re mu = m gamma below the cutoff, half of it at the cutoff, 0 above;
        # Im mu = (m gamma / pi) ln|(cutoff + omega) / (cutoff - omega)|
        bath = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=10.0, system_mass=1.5)
        susc = Susceptibility(SystemSpec(mass=1.5, omega0=1.1), bath)
        m_gamma = 1.5 * 0.2
        for omega in (0.0, 1.0, -3.0, 5.0, 9.9, 10.1, -15.0, 100.0):
            re = m_gamma if abs(omega) < 10.0 else 0.0
            im = m_gamma / math.pi * math.log(abs((10.0 + omega) / (10.0 - omega)))
            want = loss_from_transform(1.5, 1.1, re, im, omega)
            assert susc.loss(omega) == pytest.approx(want, rel=1e-13, abs=0.0)
        # at the cutoff Im mu is infinite, and so is |1/alpha|
        assert susc.loss(10.0) == loss_from_transform(1.5, 1.1, 0.5 * m_gamma,
                                                             math.inf, 10.0) == 0.0


class TestSusceptibility:
    def test_static_response(self):
        # at omega = 0 the loss is Re mu(0) alpha(0)^2 with Re mu(0) = m gamma = 1
        # and alpha(0) = 1/(m w0^2)
        sys_ = SystemSpec(mass=2.0, omega0=3.0)
        for bath in (BathSpec.strict_ohmic(0.5),
                     BathSpec.cutoff_ohmic(gamma=0.5, cutoff=4.0, system_mass=2.0)):
            susc = Susceptibility(sys_, bath)
            assert susc.loss(0.0) == pytest.approx(1.0 * (1.0 / (2.0 * 9.0)) ** 2,
                                                          rel=1e-14)

    def test_im_alpha_closed_form(self):
        # w * L(w) = Im alpha = (w gamma / m) / ((w0^2 - w^2)^2 + (w gamma)^2):
        # the strict-Ohmic transform is m gamma exactly
        sys_ = SystemSpec(mass=1.5, omega0=2.0)
        susc = Susceptibility(sys_, BathSpec.strict_ohmic(0.3))
        for omega in np.linspace(0.1, 6.0, 40):
            expected = (1.0 / 1.5) * omega * 0.3 / ((4.0 - omega**2) ** 2 + (omega * 0.3) ** 2)
            assert omega * susc.loss(omega) == pytest.approx(expected, rel=1e-13)

    def test_resonance_purely_imaginary(self):
        # alpha(w0) = i / (m w0 gamma), so Im alpha(w0) = w0 L(w0) is all of it
        susc = Susceptibility(SystemSpec(mass=1.5, omega0=2.0), BathSpec.strict_ohmic(0.3))
        assert 2.0 * susc.loss(2.0) == pytest.approx(1.0 / (1.5 * 2.0 * 0.3), rel=1e-14)

    def test_reality_condition_exact(self):
        # alpha(-w) = conj alpha(w), so the loss Im alpha / w is even, bit for bit
        for bath in BATHS:
            susc = Susceptibility(SystemSpec(mass=1.3), bath)
            for omega in (0.3, 1.0, 2.99, 4.7):
                assert susc.loss(-omega) == susc.loss(omega)

    def test_passivity_on_log_grid(self):
        omega = np.geomspace(1e-6, 1e6, 241)
        for bath in (BathSpec.strict_ohmic(0.05), BathSpec.cutoff_ohmic(gamma=0.05, cutoff=8.0)):
            susc = Susceptibility(SystemSpec(), bath)
            losses = [susc.loss(float(w)) for w in omega]
            assert all(loss >= 0.0 for loss in losses)
            assert all(loss > 0.0 for loss, w in zip(losses, omega) if w < 7.9)

    def test_kramers_kronig_at_zero(self):
        # (2/pi) Int Im[alpha]/w dw reproduces Re alpha(0) = 1/(m w0^2); above
        # 2 w0, L <= (16/9) (gamma/m) w^-4, so the tail beyond 1e3 is below
        # (2/pi) (16/9) (0.04/1.3) / (3e9) < 2e-11
        sys_ = SystemSpec(mass=1.3, omega0=1.7)
        susc = Susceptibility(sys_, BathSpec.strict_ohmic(0.04))
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)
        edges = [0.0, 0.9, 1.7, 2.5, 3.3, 1e3]  # the peak 1.7 +- 20 damping rates pinned
        val, _ = integrate_cosine(susc.loss, edges, cfg, label="kramers-kronig")
        static = (2.0 / math.pi) * val
        assert static == pytest.approx(1.0 / (1.3 * 1.7**2), rel=1e-6)

    def test_cutoff_loss_vanishes_at_and_above_cutoff(self):
        # above the near-cutoff peak the log divergence of Im mu drives the
        # loss down to 0 at the cutoff, and Re mu = 0 keeps it 0 above
        susc = Susceptibility(SystemSpec(), BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0))
        below = [susc.loss(3.0 * (1.0 - 10.0 ** -k)) for k in range(8, 15)]
        assert all(a > b > 0.0 for a, b in zip(below, below[1:]))
        for omega in (3.0, 3.5, 10.0, 1e3, -3.0, -3.5):
            assert susc.loss(omega) == 0.0

    def test_loss_regular_at_origin(self):
        susc = Susceptibility(SystemSpec(), BathSpec.strict_ohmic(0.3))
        assert susc.loss(0.0) == pytest.approx(0.3 / 1.0, rel=1e-14)


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
            return 1.3 * (omega0**2 - w**2) + w * exact_transform(bath, 1.3, w)[1]

        assert wb > cutoff
        h = 1e-4 * (wb - cutoff)
        slope = (d(wb + h) - d(wb - h)) / (2.0 * h)
        # D is steep near the cutoff: allow a few rounding steps of omega_b
        assert abs(d(wb)) < 4.0 * abs(slope) * np.spacing(wb)
        assert weight == pytest.approx(math.pi / (wb * abs(slope)), rel=1e-6)

    @pytest.mark.parametrize("gamma,cutoff,m", [(0.1, 0.8, 1.0), (0.5, 1.5, 1.3),
                                                (2.0, 3.0, 1.3)])
    def test_sum_rule_with_the_bound_state(self, gamma, cutoff, m):
        # Kramers-Kronig at zero: (2/pi) [Int_0^cutoff L dw + w_b] = alpha(0)
        # = 1/(m w0^2), so the bound state's weight closes the sum rule
        susc = Susceptibility(SystemSpec(mass=m, omega0=1.0),
                              BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff, system_mass=m))
        _, weight = susc.bound_state()
        static = (2.0 / math.pi) * (cutoff_loss_integral(susc) + weight) * m
        assert static == pytest.approx(1.0, rel=1e-7)
        if cutoff < 1.0:  # w0 above the cutoff: the bound state holds most of alpha(0)
            assert (2.0 / math.pi) * weight * m > 0.9

    def test_none_when_the_gap_underflows(self):
        # ln((w + cutoff)/(w - cutoff)) ~ pi (w^2 - w0^2) / (gamma w) puts
        # omega_b - cutoff near exp(-8e4) at gamma = 1e-4
        bath = BathSpec.cutoff_ohmic(gamma=1e-4, cutoff=3.0)
        assert Susceptibility(SystemSpec(), bath).bound_state() is None


class TestResonancePole:
    def test_strict_ohmic_pole_in_closed_form(self):
        # fbar(z) = m (w0^2 - z^2) + i m gamma z vanishes at w_d + i gamma/2,
        # with fbar'(p) = -2 m p + i m gamma = -2 m w_d
        p, slope = Susceptibility(SystemSpec(mass=1.3, omega0=1.7),
                                  BathSpec.strict_ohmic(0.5)).resonance_pole()
        wd = math.sqrt(1.7**2 - 0.25**2)
        assert p == pytest.approx(complex(wd, 0.25), rel=1e-15)
        assert slope == pytest.approx(-2.0 * 1.3 * wd, rel=1e-15)
        assert abs(1.3 * (1.7**2 - p * p) + 1j * 1.3 * 0.5 * p) < 1e-14

    def test_none_without_a_peak_below_the_cutoff(self):
        sys_ = SystemSpec()
        # gamma > w0: the peak is no narrower than w0; gamma > 2 w0: the panels
        # resolve the overdamped peak at w = 0 as well
        for gamma in (1.8, 5.0):
            assert Susceptibility(SystemSpec(mass=1.3, omega0=1.7),
                                  BathSpec.strict_ohmic(gamma)).resonance_pole() is None
        for gamma, cutoff in ((2.0, 3.0), (0.1, 0.8)):  # gamma > w0; w0 above the cutoff
            bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
            assert Susceptibility(sys_, bath).resonance_pole() is None

    @pytest.mark.parametrize("gamma", (1e-2, 1e-4, 1e-6))
    def test_taylor_steps_from_the_real_axis(self, gamma):
        # on the real axis fbar = conj(1/alpha); Taylor steps of i Im(p)
        # from Re p, with finite-difference derivatives of the closed-form
        # transform, give fbar(p) = 0 to O(gamma^3) and fbar'(p) to O(gamma^2)
        sys_ = SystemSpec(mass=1.3, omega0=1.7)
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=3.0, system_mass=1.3)
        susc = Susceptibility(sys_, bath)
        p, slope = susc.resonance_pole()
        x, y = p.real, p.imag

        def fbar(w):  # conj(1/alpha) below the cutoff
            re, im = exact_transform(bath, 1.3, w)
            return complex(1.3 * (1.7**2 - w * w) + w * im, w * re)

        h = 1e-4
        d1 = (fbar(x + h) - fbar(x - h)) / (2.0 * h)
        d2 = (fbar(x + h) - 2.0 * fbar(x) + fbar(x - h)) / h**2
        assert y == pytest.approx(0.5 * gamma, rel=gamma)
        assert abs(fbar(x) + 1j * y * d1 - 0.5 * y * y * d2) < gamma**3 + 1e-14
        assert abs(slope - (d1 + 1j * y * d2)) < gamma**2 + 1e-10
