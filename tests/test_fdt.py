"""Fluctuation-dissipation quadrature: densities, correlations, energies."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import polygamma, psi

from qlesim.bath import BathSpec, SystemSpec
from qlesim.errors import DomainError, UVDivergenceError
from qlesim.quadrature import QuadratureConfig
from qlesim import fdt

COTH_HALF = 1.0 / math.tanh(0.5)  # 2.163953413738653
FIGURE_DAMPINGS = (1.0, 0.5, 0.125, 0.0125)


class TestDensities:
    def test_resonance_values(self):
        assert fdt.pk_density(1.0, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert fdt.pp_density(1.0, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_origin_values(self):
        assert fdt.pk_density(0.0, 0.7) == 0.0
        assert fdt.pp_density(0.0, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_invalid_damping_rejected(self):
        with pytest.raises(DomainError):
            fdt.pk_density(1.0, 0.0)
        with pytest.raises(DomainError):
            fdt.pp_density(1.0, -1.0)
        with pytest.raises(DomainError):
            fdt.pk_density(-0.5, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, lam, damping):
        assert fdt.pk_density(lam, damping) >= 0.0
        assert fdt.pp_density(lam, damping) >= 0.0

    def test_ratio_is_lambda_squared(self):
        lam = np.linspace(0.1, 5.0, 37)
        ratio = fdt.pk_density(lam, 0.3) / fdt.pp_density(lam, 0.3)
        np.testing.assert_allclose(ratio, lam**2, rtol=1e-13)

    @pytest.mark.parametrize("damping", FIGURE_DAMPINGS)
    def test_normalization_figure_values(self, damping):
        assert fdt.density_normalization("k", damping) == pytest.approx(1.0, abs=1e-6)
        assert fdt.density_normalization("p", damping) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("damping", (1e-3, 1e-2, 0.1, 1.0, 10.0))
    def test_normalization_wide_range(self, damping):
        assert fdt.density_normalization("k", damping) == pytest.approx(1.0, abs=1e-6)
        assert fdt.density_normalization("p", damping) == pytest.approx(1.0, abs=1e-6)

    def test_delta_limit_moments(self):
        # both moments of both densities within 1% of 1 at damping 1e-3,
        # shrinking when the damping drops to 1e-4
        for which in ("k", "p"):
            for order in (1, 2):
                dev3 = abs(fdt.density_moment(which, order, 1e-3) - 1.0)
                dev4 = abs(fdt.density_moment(which, order, 1e-4) - 1.0)
                assert dev3 < 0.01
                assert dev4 < dev3

    def test_moment_requires_window_beyond_peak(self):
        with pytest.raises(DomainError):
            fdt.density_moment("k", 1, 0.1, window=0.5)


class TestDimensionalDensities:
    def test_rescaling_consistency(self):
        # w0 * P_k(w0 * lam) equals the dimensionless density; the two
        # routes go through different formulas
        sys_ = SystemSpec(mass=1.0, omega0=2.0)
        bath = BathSpec.strict_ohmic(0.6)  # damping ratio 0.3
        lam = np.linspace(0.0, 6.0, 100)
        dimensional = 2.0 * fdt.pk_dimensional(2.0 * lam, sys_, bath)
        dimensionless = fdt.pk_density(lam, 0.3)
        np.testing.assert_allclose(dimensional, dimensionless, atol=1e-14, rtol=1e-12)
        dimensional = 2.0 * fdt.pp_dimensional(2.0 * lam, sys_, bath)
        dimensionless = fdt.pp_density(lam, 0.3)
        np.testing.assert_allclose(dimensional, dimensionless, atol=1e-14, rtol=1e-12)

    def test_dimensional_normalization(self):
        sys_ = SystemSpec(omega0=1.5)
        bath = BathSpec.strict_ohmic(0.45)
        cfg = QuadratureConfig()
        from qlesim.quadrature import integrate_panels, resonance_edges

        edges = resonance_edges(1.5, 0.45, 20.0, upper=1.5 + 40 * 0.45)
        val, _ = integrate_panels(
            lambda w: fdt.pk_dimensional(w, sys_, bath), edges, cfg,
            tail_to_inf=True, label="P_k normalization",
        )
        assert val == pytest.approx(1.0, abs=1e-6)


class TestPositionCorrelation:
    def test_weak_coupling_equal_time(self):
        # m w0^2 C_x(0) -> (hbar w0 / 2) coth(1/2) at kB T = hbar w0
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1e-4)
        val = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig(omega_max=1e3))
        assert val == pytest.approx(0.5 * COTH_HALF, rel=1e-3)

    def test_classical_equipartition(self):
        sys_ = SystemSpec(hbar=1e-6)
        bath = BathSpec.strict_ohmic(0.5)
        val = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig(omega_max=1e4))
        assert sys_.mass * sys_.omega0**2 * val == pytest.approx(1.0, rel=5e-3)

    def test_tracks_cosine_in_weak_coupling(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1e-4)
        cfg = QuadratureConfig(omega_max=1e3)
        c0 = fdt.position_correlation(0.0, sys_, bath, cfg)
        worst = 0.0
        for tau in np.linspace(0.0, 10.0, 11):
            c = fdt.position_correlation(tau, sys_, bath, cfg)
            worst = max(worst, abs(c / c0 - math.cos(tau)))
        assert worst < 0.02

    def test_even_in_tau(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(0.3)
        cfg = QuadratureConfig(omega_max=1e3)
        assert fdt.position_correlation(2.2, sys_, bath, cfg) == \
            fdt.position_correlation(-2.2, sys_, bath, cfg)

    def test_classical_error_shrinks_as_hbar_squared(self):
        # quantum correction to m w0^2 C_x(0) scales like hbar^2; resolvable
        # down to hbar ~ 1e-3 before hitting the quadrature floor
        bath = BathSpec.strict_ohmic(0.5)
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14, omega_max=1e5)
        errors = []
        for hbar in (1e-1, 1e-2, 1e-3):
            sys_ = SystemSpec(hbar=hbar)
            val = fdt.position_correlation(0.0, sys_, bath, cfg)
            errors.append(abs(val - 1.0))
        assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(100.0, rel=0.5)

    def test_quadrature_robust_to_tolerance(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(0.01)
        loose = fdt.position_correlation(
            0.0, sys_, bath, QuadratureConfig(rel_tol=1e-8, omega_max=1e3))
        tight = fdt.position_correlation(
            0.0, sys_, bath, QuadratureConfig(rel_tol=4e-9, omega_max=1e3))
        assert tight == pytest.approx(loose, rel=1e-7)


class TestVelocityCorrelation:
    def test_weak_coupling_equal_time(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1e-4)
        val = fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig(omega_max=1e3))
        assert val == pytest.approx(0.5 * COTH_HALF, rel=5e-3)

    def test_kinetic_potential_equality_weak(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1e-4)
        split = fdt.mean_energies(sys_, bath, QuadratureConfig(omega_max=1e3))
        assert abs(split.ek / split.ep - 1.0) < 1e-3

    def test_strong_coupling_kinetic_excess(self):
        # at damping ratio 1 the kinetic channel outweighs the potential one
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1.0)
        split = fdt.mean_energies(sys_, bath, QuadratureConfig(omega_max=1e3))
        assert split.ek - split.ep > 0.0

    def test_uv_divergence_without_cutoff(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(0.1)
        with pytest.raises(UVDivergenceError, match="omega_max"):
            fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig())

    def test_weak_value_cutoff_insensitive(self):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1e-4)
        a = fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig(omega_max=1e3))
        b = fdt.velocity_correlation(0.0, sys_, bath, QuadratureConfig(omega_max=2e3))
        assert b == pytest.approx(a, rel=1e-3)


class TestWeakLimitClosedForms:
    def test_equal_time(self):
        sys_ = SystemSpec()
        cx, cv = fdt.weak_limit_correlation(0.0, sys_)
        assert cx == pytest.approx(0.5 * COTH_HALF, rel=1e-15)
        assert cv == pytest.approx(0.5 * COTH_HALF, rel=1e-15)

    def test_zero_temperature_limit(self):
        sys_ = SystemSpec(temperature=1e-3)
        _, cv = fdt.weak_limit_correlation(0.0, sys_)
        assert cv == pytest.approx(0.5, rel=1e-6)

    def test_quarter_period_zero(self):
        sys_ = SystemSpec()
        cx, cv = fdt.weak_limit_correlation(math.pi / 2.0, sys_)
        assert abs(cx) < 1e-16 and abs(cv) < 1e-16

    def test_weak_energy_value(self):
        assert fdt.weak_coupling_energy(SystemSpec()) == pytest.approx(
            0.5 * COTH_HALF, rel=1e-15
        )


class TestMeanEnergies:
    def test_sweep_approaches_weak_limit_monotonically(self):
        sys_ = SystemSpec()
        cfg = QuadratureConfig(omega_max=1e3)
        ref = fdt.weak_coupling_energy(sys_)
        deviations = []
        for damping in FIGURE_DAMPINGS:
            split = fdt.mean_energies(sys_, BathSpec.strict_ohmic(damping), cfg)
            deviations.append(abs(split.ep - ref))
        assert deviations == sorted(deviations, reverse=True)

    def test_extrapolated_energies_hit_closed_form(self):
        sys_ = SystemSpec()
        split = fdt.extrapolated_weak_energies(sys_)
        ref = fdt.weak_coupling_energy(sys_)
        assert split.ek == pytest.approx(ref, rel=1e-6)
        assert split.ep == pytest.approx(ref, rel=1e-6)


def strict_ohmic_position_variance(sys_, gamma):
    """C_x(0) = (kT/m) [1/w0^2 + 2 sum_{n>=1} 1/(nu_n^2 + gamma nu_n + w0^2)],
    nu_n = n nu, nu = 2 pi kT / hbar, summed in digamma form: with
    x, y = (gamma/2 +- sqrt(gamma^2/4 - w0^2)) / nu the sum is
    Re[(psi(1 + x) - psi(1 + y)) / ((x - y) nu^2)].
    """
    kt = sys_.kB * sys_.temperature
    nu = 2.0 * math.pi * kt / sys_.hbar
    root = cmath.sqrt(0.25 * gamma**2 - sys_.omega0**2)
    x, y = (0.5 * gamma + root) / nu, (0.5 * gamma - root) / nu
    series = (psi(1.0 + x) - psi(1.0 + y)) / ((x - y) * nu**2)
    return kt / sys_.mass * (1.0 / sys_.omega0**2 + 2.0 * series.real)


def direct_strict_ohmic(tau, sys_, gamma, upper, velocity):
    """The FDT integral of L(w) w^n coth(a w) cos(w tau) over [0, upper] by
    one plain QUADPACK call, without removing the resonance.
    """
    m, w0, a = sys_.mass, sys_.omega0, sys_.thermal_coth_scale
    power = 3 if velocity else 1

    def f(w):
        if w == 0.0:  # w^n coth(a w) -> w^(n-1) / a
            if velocity:
                return 0.0 if w0 > 0 else 1.0 / (m * a * gamma)
            return gamma / (m * a * w0**4)
        den = (w0**2 - w**2) ** 2 + (gamma * w) ** 2
        return (gamma / m) * w**power / math.tanh(a * w) / den

    if tau > 0:
        kw = dict(weight="cos", wvar=tau)
    else:
        kw = dict(points=[w0] if 0 < w0 < upper else None)
    value, _ = integrate.quad(f, 0.0, upper, epsabs=1e-14, epsrel=1e-12, limit=1000, **kw)
    return sys_.hbar / math.pi * value


SWEEP_GAMMAS = tuple(10.0**-k for k in range(2, 10))
CROSS_CHECK_GAMMAS = (1.0, 0.5, 0.125, 0.0125, 1e-4)
CHANNELS = ((0, fdt.position_correlation), (1, fdt.velocity_correlation))


class TestStrictOhmicResonance:
    """Closed-form resonance term plus quadrature of the smooth remainder."""

    @pytest.mark.parametrize("gamma", (1e-7, 1e-3, 0.5, 1.0, 3.0))
    def test_untruncated_position_variance_matches_matsubara_sum(self, gamma):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(gamma)
        got = fdt.position_correlation(0.0, sys_, bath, QuadratureConfig())
        assert got == pytest.approx(strict_ohmic_position_variance(sys_, gamma), rel=1e-9)

    @pytest.mark.parametrize("tau", (1.0, 7.3))
    def test_untruncated_position_weak_limit(self, tau):
        # at gamma = 1e-7 and tau = 1 this used to return 0.577617524 with
        # no error, against 0.584594519
        sys_ = SystemSpec()
        gamma = 1e-7
        cfg = QuadratureConfig()
        c0 = fdt.weak_limit_correlation(0.0, sys_)[0]
        got = fdt.position_correlation(tau, sys_, BathSpec.strict_ohmic(gamma), cfg)
        weak = fdt.weak_limit_correlation(tau, sys_)[0]
        assert abs(got - weak) <= 3.0 * gamma * c0 + 50.0 * cfg.rel_tol * c0

    @pytest.mark.parametrize("gamma", SWEEP_GAMMAS)
    def test_weak_coupling_sweep_lands_on_weak_limit(self, gamma):
        sys_ = SystemSpec()
        cfg = QuadratureConfig(omega_max=1e3)
        c0 = fdt.weak_limit_correlation(0.0, sys_)
        for tau in (0.0, 1.0, 7.3):
            weak = fdt.weak_limit_correlation(tau, sys_)
            for ch, fn in CHANNELS:
                got = fn(tau, sys_, BathSpec.strict_ohmic(gamma), cfg)
                band = 3.0 * gamma * c0[ch] + 50.0 * cfg.rel_tol * c0[ch]
                assert abs(got - weak[ch]) <= band, (fn.__name__, tau, got, weak[ch])

    @pytest.mark.parametrize("gamma", CROSS_CHECK_GAMMAS)
    def test_default_tolerance_agrees_with_tight(self, gamma):
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(gamma)
        cfg = QuadratureConfig(omega_max=1e3)
        tight = QuadratureConfig(omega_max=1e3, rel_tol=1e-11)
        for ch, fn in CHANNELS:
            c0 = fn(0.0, sys_, bath, tight)
            for tau in np.linspace(0.0, 10.0, 41):
                got = fn(tau, sys_, bath, cfg)
                ref = fn(tau, sys_, bath, tight)
                assert abs(got - ref) <= 50.0 * cfg.rel_tol * c0, (fn.__name__, tau, got, ref)

    def test_strong_damping_velocity_converges(self):
        # qlesim corr --gamma 1 used to raise here
        sys_ = SystemSpec()
        bath = BathSpec.strict_ohmic(1.0)
        cfg = QuadratureConfig(omega_max=1e3)
        tight = QuadratureConfig(omega_max=1e3, rel_tol=1e-11)
        got = fdt.velocity_correlation(4.75, sys_, bath, cfg)
        ref = fdt.velocity_correlation(4.75, sys_, bath, tight)
        c0 = fdt.velocity_correlation(0.0, sys_, bath, tight)
        assert abs(got - ref) <= 50.0 * cfg.rel_tol * c0

    @pytest.mark.parametrize("upper", (5.0, 1e3))
    @pytest.mark.parametrize("tau", (0.0, 0.7, 3.0))
    def test_matches_direct_quadrature_at_moderate_damping(self, upper, tau):
        # at gamma = 0.3 the peak is wide enough for plain QUADPACK; at
        # upper = 5 the closed-form tail of the pole pair above the cutoff
        # is a sizeable part of the value
        sys_ = SystemSpec()
        cfg = QuadratureConfig(omega_max=upper)
        for ch, fn in CHANNELS:
            got = fn(tau, sys_, BathSpec.strict_ohmic(0.3), cfg)
            ref = direct_strict_ohmic(tau, sys_, 0.3, upper, velocity=bool(ch))
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_large_tau_stays_finite(self):
        # gamma tau / 2 = 750: e^(gamma tau / 2) overflows, so the tail
        # needs e^z E1(z) without forming either factor
        sys_ = SystemSpec()
        cfg = QuadratureConfig(omega_max=1e3)
        for ch, fn in CHANNELS:
            got = fn(1500.0, sys_, BathSpec.strict_ohmic(1.0), cfg)
            ref = direct_strict_ohmic(1500.0, sys_, 1.0, 1e3, velocity=bool(ch))
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_free_particle(self):
        # the position correlation diverges at omega0 = 0; the velocity
        # correlation is finite
        sys_ = SystemSpec(omega0=0.0)
        bath = BathSpec.strict_ohmic(0.5)
        cfg = QuadratureConfig(omega_max=1e3)
        with pytest.raises(DomainError, match="free particle"):
            fdt.position_correlation(1.0, sys_, bath, cfg)
        for tau in (0.0, 1.0):
            got = fdt.velocity_correlation(tau, sys_, bath, cfg)
            assert got == pytest.approx(direct_strict_ohmic(tau, sys_, 0.5, 1e3, True), rel=1e-8)


# cutoff-Ohmic baths (gamma, cutoff); the last has its cutoff below omega0,
# so most of the spectral weight sits in the bound state above the cutoff
CUTOFF_BATHS = [(0.5, 3.0), (1.0, 3.0), (2.0, 3.0), (0.5, 1.5), (0.1, 0.8)]


def matsubara_position_variance(sys_, bath, n_terms=2_000_000):
    """C_x(0) = (kT/m) sum_n 1/(w0^2 + nu_n^2 + nu_n muhat(nu_n)/m) over all
    integers n, nu_n = 2 pi |n| kT / hbar, with the Laplace transform
    muhat(nu) = (2 m gamma / pi) arctan(cutoff / nu) of the sinc kernel and
    the 1/nu^2 tail beyond n_terms summed in closed form.
    """
    kt = sys_.kB * sys_.temperature
    nu1 = 2.0 * math.pi * kt / sys_.hbar
    nu = nu1 * np.arange(1, n_terms + 1)
    muhat = (2.0 * sys_.mass * bath.gamma / math.pi) * np.arctan(bath.cutoff / nu)
    terms = 1.0 / (sys_.omega0**2 + nu**2 + nu * muhat / sys_.mass)
    tail = float(polygamma(1, n_terms + 1)) / nu1**2
    return kt / sys_.mass * (1.0 / sys_.omega0**2 + 2.0 * (terms.sum() + tail))


class TestCutoffBathPath:
    @pytest.mark.parametrize("gamma,cutoff", CUTOFF_BATHS)
    def test_position_variance_matches_matsubara_sum(self, gamma, cutoff):
        sys_ = SystemSpec()
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
        got = fdt.position_correlation(0.0, sys_, bath)
        assert got == pytest.approx(matsubara_position_variance(sys_, bath), rel=1e-7)

    @pytest.mark.parametrize("gamma,cutoff", CUTOFF_BATHS)
    def test_classical_sum_rules(self, gamma, cutoff):
        # m w0^2 C_x(0) = m C_v(0) = kT for any bath once hbar -> 0
        sys_ = SystemSpec(hbar=1e-6)
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
        split = fdt.mean_energies(sys_, bath)
        assert split.ep == pytest.approx(1.0, rel=1e-6)
        assert split.ek == pytest.approx(1.0, rel=1e-6)

    def test_cutoff_close_to_strict_at_large_cutoff(self):
        sys_ = SystemSpec()
        cut = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=30.0)
        strict = BathSpec.strict_ohmic(0.2)
        a = fdt.position_correlation(0.0, sys_, cut, QuadratureConfig())
        b = fdt.position_correlation(0.0, sys_, strict, QuadratureConfig())
        assert a == pytest.approx(b, rel=5e-3)
