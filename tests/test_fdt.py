"""Fluctuation-dissipation quadrature: densities, correlations, energies."""

import cmath
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import polygamma, psi

from qlesim.bath import BathSpec, SystemSpec
from qlesim.errors import DomainError, QlesimError, QuadratureError, UVDivergenceError
from qlesim.quadrature import QuadratureConfig, integrate_cosine
from qlesim.response import Susceptibility
from qlesim import cli, fdt, microbath

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

    def test_kinetic_density_finite_at_huge_lambda(self):
        # L^2 and (1 - L^2)^2 overflowed above L = 1.2e77: the density read 0
        # at L = 1e100 and nan at 1e308
        assert fdt.pk_density(1e100, 0.5) == pytest.approx(3.183098861837907e-201, rel=1e-12)
        assert 0.0 <= fdt.pk_density(1e308, 0.5) <= 1e-300

    def test_potential_density_zero_at_huge_lambda(self):
        # (1 - L^2)^2 overflows from L = 1.2e77, where P_p is 0, with no warning
        assert fdt.pp_density(1e100, 0.5) == 0.0
        np.testing.assert_array_equal(fdt.pp_density(np.array([0.0, 5e307, 1e308]), 0.5),
                                      [2 * 0.5 / math.pi, 0.0, 0.0])

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

    @pytest.mark.parametrize("damping", (3e16, 1e20, 1e150))
    def test_normalization_overdamped(self, damping):
        # P_p holds its weight in a peak of width 1/damping at Lambda = 0,
        # which the octaves stopped above: at 1e20 it read 9.8e-18
        assert fdt.density_normalization("p", damping) == pytest.approx(1.0, abs=1e-9)

    def test_moments_raise_where_the_loss_leaves_the_floats(self):
        # from (damping * window)^2 = inf the loss reads 0 inside the window, and
        # moments with weight there read low: P_k's normalization 8.5e-47 at 1e100,
        # its integral over [0, 10] 8.6e-155 at 1e154 for 6.4e-154; (1 - window^2)^2
        # overflows from 1.16e77, and the normalization read 1 - 5.5e-8 at 1e70
        assert 1e150 * fdt.density_moment("k", 0, 1e150) == pytest.approx(20.0 / math.pi,
                                                                           rel=1e-9)
        for which, order, damping, window in (("k", 0, 1e154, 10.0), ("k", 2, 1e200, 10.0),
                                              ("p", 1, 1e160, 10.0), ("k", 0, 1e100, math.inf),
                                              ("k", 0, 1e70, math.inf)):
            with pytest.raises(DomainError):
                fdt.density_moment(which, order, damping, window)

    def test_delta_limit_moments(self):
        # both moments of both densities within 1% of 1 at damping 1e-3,
        # shrinking when the damping drops to 1e-4, and within 10 dampings
        # of 1 down to 1e-9 (a resonance-isolating quadrature was 1.6% off
        # at 1e-9 and raised at 1e-6)
        for which in ("k", "p"):
            for order in (1, 2):
                dev3 = abs(fdt.density_moment(which, order, 1e-3) - 1.0)
                dev4 = abs(fdt.density_moment(which, order, 1e-4) - 1.0)
                assert dev3 < 0.01
                assert dev4 < dev3
                for damping in (1e-3, 1e-4, 1e-6, 1e-9):
                    dev = abs(fdt.density_moment(which, order, damping) - 1.0)
                    assert dev <= 10.0 * damping, (which, order, damping, dev)

    def test_moments_are_python_floats(self):
        # as the correlations are at a float tau, not 0-d numpy values
        assert type(fdt.density_normalization("p", 0.1)) is float
        assert type(fdt.density_moment("k", 1, 0.1)) is float

    def test_moment_requires_window_beyond_peak(self):
        with pytest.raises(DomainError):
            fdt.density_moment("k", 1, 0.1, window=0.5)
        # on [0, inf) the second moment of P_k diverges linearly, and it
        # used to come out finite; that of P_p is the normalization of P_k
        with pytest.raises(DomainError):
            fdt.density_moment("k", 2, 0.1, window=math.inf)
        assert fdt.density_moment("p", 2, 0.1, window=math.inf) == pytest.approx(1.0, abs=1e-8)


class TestDimensionalDensities:
    def test_rescaling_consistency(self):
        # w0 * P_k(w0 * lam) equals the dimensionless density; the two
        # routes go through different formulas: P_p(w) = (2 m w0^2 / pi) L(w)
        # and P_k(w) = (2 m / pi) w^2 L(w) from the loss L = Im alpha / w
        sys_ = SystemSpec(mass=1.0, omega0=2.0)
        loss = Susceptibility(sys_, BathSpec.strict_ohmic(0.6)).loss  # damping ratio 0.3
        lam = np.linspace(0.0, 6.0, 100)
        dimensional = [2.0 * (2.0 / math.pi) * (2.0 * x) ** 2 * loss(2.0 * x) for x in lam]
        dimensionless = fdt.pk_density(lam, 0.3)
        np.testing.assert_allclose(dimensional, dimensionless, atol=1e-14, rtol=1e-12)
        dimensional = [2.0 * (2.0 / math.pi) * 4.0 * loss(2.0 * x) for x in lam]
        dimensionless = fdt.pp_density(lam, 0.3)
        np.testing.assert_allclose(dimensional, dimensionless, atol=1e-14, rtol=1e-12)

    def test_dimensional_normalization(self):
        # P_k(w) = (2 m / pi) w^2 L(w) integrates to 1 over [0, inf); above
        # 2 w0, L <= (16/9) gamma w^-4, so the tail beyond 1e7 is below
        # (2/pi) (16/9) 0.45 / 1e7 < 6e-8
        loss = Susceptibility(SystemSpec(omega0=1.5), BathSpec.strict_ohmic(0.45)).loss
        val, _ = integrate_cosine(
            lambda w: (2.0 / math.pi) * w * w * loss(w),
            [0.0, 1.5, 10.5, 19.5, 1e3, 1e5, 1e7], QuadratureConfig(), label="P_k normalization",
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

    def test_abs_tol_bounds_the_correlation_itself(self):
        # abs_tol used to bound the frequency integral before its factor
        # hbar/pi, asking 1e-18 of C at hbar = 1e-6, and this cell raised
        gamma, tau = 0.5, 100.0
        got = fdt.position_correlation(tau, SystemSpec(hbar=1e-6),
                                       BathSpec.strict_ohmic(gamma), QuadratureConfig())
        wd = math.sqrt(1.0 - 0.25 * gamma**2)
        classical = math.exp(-0.5 * gamma * tau) * (
            math.cos(wd * tau) + 0.5 * gamma / wd * math.sin(wd * tau))
        assert got == pytest.approx(classical, rel=1e-6)

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

    @pytest.mark.parametrize("mass", (1e150, 1e-150))
    def test_strict_energies_independent_of_mass(self, mass):
        # at fixed gamma m C_v and m C_x do not depend on m; at m = 1e150,
        # m^2 (w0^2 - w^2)^2 overflowed above w = 116 and the loss read 0
        # there, which dropped the UV part of Ek (1.1904 for 1.2591)
        bath = BathSpec.strict_ohmic(0.1)
        unit = fdt.mean_energies(SystemSpec(), bath, QuadratureConfig(omega_max=1e3))
        got = fdt.mean_energies(SystemSpec(mass=mass), bath,
                                QuadratureConfig(omega_max=1e3, abs_tol=1e-12 / mass))
        assert got.ek == pytest.approx(unit.ek, rel=1e-12)
        assert got.ep == pytest.approx(unit.ep, rel=1e-12)

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
    Re[(psi(1 + x) - psi(1 + y)) / ((x - y) nu^2)], and psi'(1 + x) / nu^2
    where x = y, at gamma = 2 w0.
    """
    kt = sys_.kB * sys_.temperature
    nu = 2.0 * math.pi * kt / sys_.hbar
    root = cmath.sqrt(0.25 * gamma**2 - sys_.omega0**2)
    x, y = (0.5 * gamma + root) / nu, (0.5 * gamma - root) / nu
    if x == y:
        series = polygamma(1, 1.0 + x.real) / nu**2
    else:
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


def geometric_panels_strict_ohmic(gamma, velocity, upper=1e3):
    """C(0) at m = w0 = hbar = kB T = 1 by QUADPACK on 60 geometric panels
    from 1e-6 to ``upper``, at epsrel 1e-13: the overdamped peak of width
    ~1/gamma at w = 0 gets panels of its own scale."""
    def f(w):
        weight = w / math.tanh(0.5 * w) if w > 0.0 else 2.0
        power = 2 if velocity else 0
        return gamma * w**power * weight / ((1.0 - w * w) ** 2 + (gamma * w) ** 2)

    edges = [0.0, *np.geomspace(1e-6, upper, 60)]
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges, edges[1:])) / math.pi


SWEEP_GAMMAS = tuple(10.0**-k for k in range(2, 10))
CROSS_CHECK_GAMMAS = (1.0, 0.5, 0.125, 0.0125, 1e-4)
CHANNELS = ((0, fdt.position_correlation), (1, fdt.velocity_correlation))

# the strict-Ohmic sweep at omega_max = 1e3 as the CLI prints it (12 digits):
# gamma = 10^-k -> (C_x, C_v) at tau = 0, 1 and 7.3
SWEEP_PINNED = {
    2: ("1.08188399822", "1.09975634508", "0.585544380231", "0.576489358523",
        "0.552657685301", "0.543781909199"),
    3: ("1.08196742437", "1.08375538402", "0.584689551991", "0.583780354853",
        "0.567520711633", "0.566603831546"),
    4: ("1.0819757785", "1.08215458173", "0.584604014404", "0.584513057652",
        "0.569035041245", "0.568943055332"),
    5: ("1.08197661403", "1.08199449443", "0.584595460101", "0.584586364056",
        "0.569186759075", "0.5691775575"),
    6: ("1.08197669759", "1.08197848563", "0.584594604666", "0.584593695057",
        "0.569201933711", "0.569201013524"),
    7: ("1.08197670594", "1.08197688474", "0.584594519122", "0.584594428161",
        "0.569203451203", "0.569203359184"),
    8: ("1.08197670678", "1.08197672466", "0.584594510568", "0.584594501472",
        "0.569203602953", "0.569203593751"),
    9: ("1.08197670686", "1.08197670865", "0.584594509712", "0.584594508803",
        "0.569203618128", "0.569203617208"),
}
SWEEP_CELLS = [(k, tau, ch, SWEEP_PINNED[k][2 * i + ch]) for k in SWEEP_PINNED
               for i, tau in enumerate((0.0, 1.0, 7.3)) for ch in (0, 1)]


class TestStrictOhmicResonance:
    """Closed-form resonance term plus quadrature of the smooth remainder."""

    @pytest.mark.parametrize("gamma", (1e-7, 1e-3, 0.5, 1.0, 3.0, 3e16, 1e20, 1e150))
    def test_untruncated_position_variance_matches_matsubara_sum(self, gamma):
        # from gamma = 3e16 the octaves stopped above the overdamped peak of
        # width w0^2 / gamma at w = 0 and read 3.3e-14, 9.9e-18 and 9.8e-148
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

    @pytest.mark.parametrize("k,tau,ch,want", SWEEP_CELLS)
    def test_single_tau_sweep_cells_are_pinned(self, k, tau, ch, want):
        # one tau a call, as the benchmark's sweep makes them; no golden file
        # holds a single-tau value at weak damping
        got = CHANNELS[ch][1](tau, SystemSpec(), BathSpec.strict_ohmic(10.0**-k),
                              QuadratureConfig(omega_max=1e3))
        assert f"{got:.12g}" == want

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

    def test_velocity_raises_where_the_loss_leaves_the_floats(self):
        # the loss's (gamma w)^2 overflows from gamma w = 1.3e154: at omega_max = 1e3
        # C_v(0) read 9.0e-155 at gamma = 1e154 for 1.59e-149, and 8.6e-247 at 1e200;
        # (w0^2 - w^2)^2 from w = 1.16e77: at omega_max = 1e100 C_v(0) read 6.69 for 8.4
        sys_, cfg = SystemSpec(), QuadratureConfig(omega_max=1e3)
        for upper in (1.17e77, 1e100):
            with pytest.raises(DomainError):
                fdt.velocity_correlation(0.0, sys_, BathSpec.strict_ohmic(0.1),
                                         QuadratureConfig(omega_max=upper))
        scaled = [g * fdt.velocity_correlation(0.0, sys_, BathSpec.strict_ohmic(g), cfg)
                  for g in (1e100, 1e150)]
        assert scaled[1] == pytest.approx(scaled[0], rel=1e-9)
        for g in (1e154, 1e200):
            with pytest.raises(DomainError):
                fdt.velocity_correlation(0.0, sys_, BathSpec.strict_ohmic(g), cfg)
        # C_x loses only a tail of about 1e-154 there
        cx = fdt.position_correlation(0.0, sys_, BathSpec.strict_ohmic(1e200), cfg)
        assert cx == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("upper", (5.0, 1e3, 0.5))
    @pytest.mark.parametrize("tau", (0.0, 0.7, 3.0))
    def test_matches_direct_quadrature_at_moderate_damping(self, upper, tau):
        # at gamma = 0.3 the peak is wide enough for plain QUADPACK; at
        # upper = 5 the closed-form tail of the pole pair above the cutoff
        # is a sizeable part of the value; at upper = 0.5 the pole lies
        # beyond the cutoff and is not removed
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


    @pytest.mark.parametrize("gamma,temp,want", [(1e4, 1.0, 1.00017960339),
                                                 (1e3, 100.0, 100.0003112)])
    def test_strong_damping_position_variance(self, gamma, temp, want):
        # the digamma sum at omega_max = inf less the UV tail above 1e3
        # (7.345e-5 and 1.103e-4); 0.000179594219239 and 0.000211 before octave
        # panels resolved the width-kappa peak of gamma > 2 w0 at w = 0
        got = fdt.position_correlation(0.0, SystemSpec(temperature=temp),
                                       BathSpec.strict_ohmic(gamma),
                                       QuadratureConfig(omega_max=1e3))
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("gamma,temp", [(1e3, 0.01), (1e5, 0.01), (1e5, 0.1)])
    def test_untruncated_overdamped_at_low_temperature(self, gamma, temp):
        # the digamma sum; gamma = 1e5 raised QuadratureError at T <= 0.1
        sys_ = SystemSpec(temperature=temp)
        got = fdt.position_correlation(0.0, sys_, BathSpec.strict_ohmic(gamma), QuadratureConfig())
        assert got == pytest.approx(strict_ohmic_position_variance(sys_, gamma), rel=1e-9)

    @pytest.mark.parametrize("gamma", (1e-6, 1e-3))
    def test_free_particle_weak_damping(self, gamma):
        # the slow pole i gamma of a free particle is left to the quadrature,
        # which read C_v(0) = 1.8e-6 at gamma = 1e-6 on one panel, and raised
        # at 1e-3; the oracle gives each Lorentzian decade a panel
        def f(w):
            return gamma / (w * w + gamma * gamma) * (w / math.tanh(0.5 * w) if w > 0 else 2.0)

        edges = [0.0, *np.geomspace(1e-12, 1e3, 120)]
        cfg = QuadratureConfig(omega_max=1e3)
        for tau in (0.0, 0.7, 3.0):
            weight = dict(weight="cos", wvar=tau) if tau > 0 else {}
            with warnings.catch_warnings():  # roundoff notes at 1e-12; rel_tol is what is checked
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                want = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400,
                                          **weight)[0] for lo, hi in zip(edges, edges[1:]))
            want /= math.pi
            got = fdt.velocity_correlation(tau, SystemSpec(omega0=0.0),
                                           BathSpec.strict_ohmic(gamma), cfg)
            assert got == pytest.approx(want, rel=cfg.rel_tol), tau

    @pytest.mark.parametrize("gamma", (700.0, 1000.0, 5000.0))
    def test_strong_damping_cells_that_raised(self, gamma):
        # QuadratureError (exit 2) before octave panels resolved the width-kappa
        # peak of gamma > 2 w0 at w = 0; 1.00231691293, 1.00168812686 and
        # 1.00035829341 since
        cfg = QuadratureConfig(omega_max=1e3)
        got = fdt.position_correlation(0.0, SystemSpec(), BathSpec.strict_ohmic(gamma), cfg)
        want = geometric_panels_strict_ohmic(gamma, velocity=False)
        assert got == pytest.approx(want, rel=cfg.rel_tol)

    def test_strong_damping_velocity_variance(self):
        # energy --gammas 300 printed Ek = 119.090079702, 9.3e-8 off, with
        # no error: the peak of width 1/gamma at w = 0 was left to one panel
        cfg = QuadratureConfig(omega_max=1e3)
        got = fdt.velocity_correlation(0.0, SystemSpec(), BathSpec.strict_ohmic(300.0), cfg)
        want = geometric_panels_strict_ohmic(300.0, velocity=True)
        assert want == pytest.approx(119.090068658, rel=1e-11)
        assert got == pytest.approx(want, rel=cfg.rel_tol)


UNBOUNDED_GAMMAS = (1e-6, 1e-3, 0.1, 0.9, 1.0, 1.1, 2.0, 2.5, 10.0, 1e3, 1e5)
UNBOUNDED_TEMPS = (0.01, 0.1, 1.0, 10.0, 100.0)

UNBOUNDED_PROBE = """
import sys
from qlesim import fdt
from qlesim.bath import BathSpec, SystemSpec
for tau in (0.0, 7.3):
    fdt.position_correlation(tau, SystemSpec(), BathSpec.strict_ohmic(0.1))
fdt.density_normalization("p", 0.1)
print("scipy.integrate" in sys.modules)
"""


class TestUnboundedUpperLimit:
    """omega_max = None and window = inf stand for a finite upper limit whose
    omitted tail of L h is below abs_tol, on the one panel path."""

    @pytest.mark.parametrize("temp", UNBOUNDED_TEMPS)
    @pytest.mark.parametrize("gamma", UNBOUNDED_GAMMAS)
    def test_position_variance_matches_digamma(self, gamma, temp):
        sys_ = SystemSpec(temperature=temp)
        bath = BathSpec.strict_ohmic(gamma)
        c0 = fdt.position_correlation(0.0, sys_, bath)
        assert c0 == pytest.approx(strict_ohmic_position_variance(sys_, gamma), rel=1e-9)
        assert abs(fdt.position_correlation(7.3, sys_, bath)) <= c0

    def test_no_quadpack_in_a_fresh_interpreter(self):
        # an unbounded limit went to scipy.integrate.quad, one tau at a time
        src = str(Path(fdt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", UNBOUNDED_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


# at w0 = 10 and kB T = hbar = 1 the slow pole i kappa of gamma > 2 w0 sits on the
# first Matsubara frequency nu = 2 pi at gamma = w0^2 / nu + nu, where the weight
# kappa cot(kappa / 2) of a closed-form term for it would be infinite
GAMMA_ON_MATSUBARA = 100.0 / (2.0 * math.pi) + 2.0 * math.pi


class TestSlowPoleOnMatsubaraFrequency:
    """The slow pole is left to the panels, which resolve it whether or not it
    meets a pole of the thermal weight; a closed-form term for it once
    cancelled the remainder there, e.g. 5e14 against 0.06, and raised."""

    @staticmethod
    def oracles(delta):
        sys_ = SystemSpec(omega0=10.0)
        gamma = GAMMA_ON_MATSUBARA * (1.0 + delta)
        return sys_, BathSpec.strict_ohmic(gamma), [
            (None, 0.0, strict_ohmic_position_variance(sys_, gamma)),
            (1e3, 0.0, direct_strict_ohmic(0.0, sys_, gamma, 1e3, False)),
            (1e3, 1.0, direct_strict_ohmic(1.0, sys_, gamma, 1e3, False))]

    @pytest.mark.parametrize("delta", (0.0, 1e-12, 1e-9))
    def test_at_the_collision_matches_or_raises(self, delta):
        # C_x(0) read 0.0397887 for 0.0328423 at delta = 0, still 9e-6 off at
        # 1e-12 and 1.6e-8 at 1e-9; C_x(1) read 0.0159 for -1.67e-4
        sys_, bath, cells = self.oracles(delta)
        for omega_max, tau, want in cells:
            try:
                got = fdt.position_correlation(tau, sys_, bath,
                                               QuadratureConfig(omega_max=omega_max))
            except QuadratureError:
                continue
            assert got == pytest.approx(want, rel=1e-8), (omega_max, tau)

    @pytest.mark.parametrize("delta", (0.0, 1e-12, 1e-9))
    def test_at_the_collision_matches(self, delta):
        # each cell raised QuadratureError while the slow pole had a closed form
        sys_, bath, cells = self.oracles(delta)
        for omega_max, tau, want in cells:
            got = fdt.position_correlation(tau, sys_, bath, QuadratureConfig(omega_max=omega_max))
            assert got == pytest.approx(want, rel=1e-8), (omega_max, tau)

    @pytest.mark.parametrize("delta", (1e-7, -1e-7, 1e-3))
    def test_near_the_collision_matches(self, delta):
        sys_, bath, cells = self.oracles(delta)
        for omega_max, tau, want in cells[:2]:  # C_x(1) is 1e-4 of C_x(0) there
            got = fdt.position_correlation(tau, sys_, bath, QuadratureConfig(omega_max=omega_max))
            assert got == pytest.approx(want, rel=1e-9), omega_max


def test_cancellation_check_still_raises(monkeypatch, capsys):
    # no known input fails the check on the remainder's error bound since the
    # slow pole has no closed form, so one is faked: C raises, the CLI exits 2
    resolve = fdt.integrate_cosine

    def loose(*args, **kwargs):
        return resolve(*args, **kwargs)[0], 1.0  # far above 50 rel_tol |value| here

    monkeypatch.setattr(fdt, "integrate_cosine", loose)
    with pytest.raises(QuadratureError, match="cancel"):
        fdt.position_correlation(0.0, SystemSpec(), BathSpec.strict_ohmic(0.1))
    assert cli.main(["corr"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure: ")
    assert len(err.splitlines()) == 1


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


def direct_cutoff_ohmic(tau, sys_, bath, velocity):
    """The FDT integral of a cutoff-Ohmic bath by plain QUADPACK on panels
    split at w0 and at the shoulders of the cutoff, without removing the
    resonance, plus the bound state above the cutoff from its own root
    search.  Below the cutoff mu = m gamma (1 + (i/pi) ln((W + w)/(W - w)))
    and L = m gamma / (D^2 + (m gamma w)^2) with D = Re(1/alpha); above it
    L = pi / (w_b |D'(w_b)|) delta(w - w_b) at the zero w_b of D.
    """
    m, w0, a = sys_.mass, sys_.omega0, sys_.thermal_coth_scale
    gamma, cut = bath.gamma, bath.cutoff
    k = m * gamma / math.pi
    power = 3 if velocity else 1

    def d(w):
        return m * (w0**2 - w**2) + k * w * math.log(abs((cut + w) / (cut - w)))

    def f(w):
        if w == 0.0:  # w^n coth(a w) -> w^(n-1) / a
            return 0.0 if velocity else gamma / (m * a * w0**4)
        return m * gamma * w**power / math.tanh(a * w) / (d(w) ** 2 + (m * gamma * w) ** 2)

    points = [w0] if w0 < cut else []
    edges = sorted({0.0, *points, *(cut * (1.0 - 10.0 ** -np.arange(1, 9))), cut})
    kw = dict(weight="cos", wvar=tau) if tau > 0 else {}
    value = sum(integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=1000, **kw)[0]
                for lo, hi in zip(edges, edges[1:]))
    wb = brentq(d, cut * (1.0 + 1e-13), 10.0 * (cut + w0 + gamma), xtol=1e-300)
    slope = (-2.0 * m * wb + k * math.log((wb + cut) / (wb - cut))
             - 2.0 * k * cut * wb / (wb**2 - cut**2))
    value += (math.pi / (wb * abs(slope)) * wb**power / math.tanh(a * wb)
              * math.cos(wb * tau))
    return sys_.hbar / math.pi * value


class TestCutoffBathPath:
    @pytest.mark.parametrize("gamma,cutoff", CUTOFF_BATHS)
    def test_matches_direct_quadrature(self, gamma, cutoff):
        sys_ = SystemSpec()
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
        for tau in (0.0, 0.7, 3.0):
            for ch, fn in CHANNELS:
                got = fn(tau, sys_, bath)
                ref = direct_cutoff_ohmic(tau, sys_, bath, velocity=bool(ch))
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-12), (fn.__name__, tau)

    @pytest.mark.parametrize("gamma", SWEEP_GAMMAS + (3e-7, 2e-7, 1.5e-7, 5e-8))
    def test_weak_coupling_sweep_lands_on_weak_limit(self, gamma):
        # with the resonance isolated on panels, gamma = 1e-7 and 5e-8 came
        # out 0.8% and 1.6% low with no error, and 2e-7, 1.5e-7 and 1e-8 raised
        sys_ = SystemSpec()
        cfg = QuadratureConfig()
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=3.0)
        c0 = fdt.weak_limit_correlation(0.0, sys_)
        for tau in (0.0, 1.0, 7.3):
            weak = fdt.weak_limit_correlation(tau, sys_)
            for ch, fn in CHANNELS:
                got = fn(tau, sys_, bath, cfg)
                band = 4.0 * gamma * c0[ch] + 50.0 * cfg.rel_tol * c0[ch]
                assert abs(got - weak[ch]) <= band, (fn.__name__, tau, got, weak[ch])

    @pytest.mark.parametrize("gamma,cutoff", CUTOFF_BATHS)
    def test_position_variance_matches_matsubara_sum(self, gamma, cutoff):
        sys_ = SystemSpec()
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
        got = fdt.position_correlation(0.0, sys_, bath)
        assert got == pytest.approx(matsubara_position_variance(sys_, bath), rel=1e-7)

    @pytest.mark.parametrize("temp", (1.0, 10.0, 100.0))
    @pytest.mark.parametrize("gamma", (1e3, 1e4, 1e20))
    def test_strong_damping_position_variance_matches_matsubara_sum(self, gamma, temp):
        # the overdamped cutoff bath, Omega = 100: before the octave panels the
        # gamma = 1e4 cells read 0.00072, 0.00065 and 0.00053 against 1.00072,
        # 10.00064 and 100.00047; before they reached down to the peak's width
        # w0^2 / gamma, the gamma = 1e20 cells read about 6e-12
        sys_ = SystemSpec(temperature=temp)
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=100.0)
        got = fdt.position_correlation(0.0, sys_, bath)
        assert got == pytest.approx(matsubara_position_variance(sys_, bath), rel=1e-7)

    @pytest.mark.parametrize("gamma", (1e200, 1e250, 1e300))
    def test_bound_state_right_or_raise(self, gamma):
        # from about 1e250 the bound state's equation leaves the floats: brentq
        # raised ValueError, after a matmul overflow warning at 1e300
        bath = BathSpec.cutoff_ohmic(gamma, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if gamma == 1e200:
                assert fdt.position_correlation(0.0, SystemSpec(), bath) == pytest.approx(
                    1.0, abs=1e-9)
            else:
                with pytest.raises(QlesimError):
                    fdt.position_correlation(0.0, SystemSpec(), bath)

    @pytest.mark.parametrize("gamma,cutoff", CUTOFF_BATHS)
    def test_classical_sum_rules(self, gamma, cutoff):
        # m w0^2 C_x(0) = m C_v(0) = kT for any bath once hbar -> 0
        sys_ = SystemSpec(hbar=1e-6)
        bath = BathSpec.cutoff_ohmic(gamma=gamma, cutoff=cutoff)
        split = fdt.mean_energies(sys_, bath)
        assert split.ep == pytest.approx(1.0, rel=1e-6)
        assert split.ek == pytest.approx(1.0, rel=1e-6)

    def test_bath_mass_must_be_the_system_mass(self):
        # a bath built for mass 1 under a 2.5-mass oscillator returned the
        # gamma = 0.2 <x^2> (0.432603) and C_f(0) = 1.17498 without error
        sys_ = SystemSpec(mass=2.5)
        wrong = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0)
        right = BathSpec.cutoff_ohmic(gamma=0.5, cutoff=3.0, system_mass=2.5)
        with pytest.raises(DomainError, match="system mass"):
            fdt.position_correlation(0.0, sys_, wrong)
        with pytest.raises(DomainError, match="system mass"):
            microbath.noise_autocorrelation_quadrature(sys_, wrong, 0.0)
        assert fdt.position_correlation(0.0, sys_, right) == pytest.approx(0.432326, rel=1e-5)
        assert microbath.noise_autocorrelation_quadrature(sys_, right, 0.0) == pytest.approx(
            2.93745, rel=1e-5)
        # a strict-Ohmic bath stores no mass
        assert fdt.position_correlation(0.0, sys_, BathSpec.strict_ohmic(0.5)) > 0.0

    @pytest.mark.parametrize("tau", (0.0, 1.0))
    def test_free_particle_position_raises(self, tau):
        # it diverges at low frequency; it returned -3.4935 at tau = 0 and
        # -3.9859 at tau = 1
        with pytest.raises(DomainError, match="free particle"):
            fdt.position_correlation(tau, SystemSpec(omega0=0.0),
                                     BathSpec.cutoff_ohmic(0.5, 3.0))

    def test_free_particle_energies_raise(self):
        # Ep = m w0^2 C_x(0) came out -0.0 from the negative C_x(0)
        with pytest.raises(DomainError, match="free particle"):
            fdt.mean_energies(SystemSpec(omega0=0.0), BathSpec.cutoff_ohmic(0.5, 3.0))

    def test_free_particle_velocity(self):
        # Re mu(0) = m gamma, so w^2 L -> 1/(m gamma) at w = 0 as for strict
        # Ohmic; QAWO's node at w = 0 raised "loss at omega = 0.0" for
        # tau >= 3 at cutoff 3 and for tau >= 0.5 at cutoff 30
        sys_ = SystemSpec(omega0=0.0)
        cfg = QuadratureConfig(omega_max=1e3)
        bath = BathSpec.cutoff_ohmic(0.5, 3.0)
        for tau in (0.0, 1.0, 3.0, 10.0):
            got = fdt.velocity_correlation(tau, sys_, bath, cfg)
            assert got == pytest.approx(direct_cutoff_ohmic(tau, sys_, bath, True), rel=1e-9,
                                        abs=1e-12)
        for tau in (0.5, 1.0, 3.0, 10.0):  # its bound state underflows: no direct oracle
            assert math.isfinite(fdt.velocity_correlation(tau, sys_,
                                                          BathSpec.cutoff_ohmic(2.0, 30.0), cfg))
        # a cutoff far above the resonance is strict Ohmic to O(gamma / cutoff)
        strict = BathSpec.strict_ohmic(0.5)
        c0 = fdt.velocity_correlation(0.0, sys_, strict, cfg)
        for tau in (1.0, 3.0, 10.0):
            got = fdt.velocity_correlation(tau, sys_, BathSpec.cutoff_ohmic(0.5, 300.0), cfg)
            assert abs(got - fdt.velocity_correlation(tau, sys_, strict, cfg)) <= 1e-3 * c0

    def test_cutoff_close_to_strict_at_large_cutoff(self):
        sys_ = SystemSpec()
        cut = BathSpec.cutoff_ohmic(gamma=0.2, cutoff=30.0)
        strict = BathSpec.strict_ohmic(0.2)
        a = fdt.position_correlation(0.0, sys_, cut, QuadratureConfig())
        b = fdt.position_correlation(0.0, sys_, strict, QuadratureConfig())
        assert a == pytest.approx(b, rel=5e-3)


FAR_TAU_BATHS = {"strict": (BathSpec.strict_ohmic(0.1), QuadratureConfig(omega_max=1e3)),
                 "cutoff": (BathSpec.cutoff_ohmic(0.5, 3.0), QuadratureConfig())}


@pytest.mark.parametrize("tau", (1e23, 1e30, 1e300))
@pytest.mark.parametrize("bath", FAR_TAU_BATHS)
def test_far_tau_is_finite_and_bounded(bath, tau):
    # the E1 tail's asymptotic series formed z^(n + 1), which overflows once
    # |z|^12 > 1.8e308: C(1e23) on the strict bath was nan, with warnings
    sys_ = SystemSpec()
    spec, cfg = FAR_TAU_BATHS[bath]
    for _, fn in CHANNELS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn(tau, sys_, spec, cfg)
        assert math.isfinite(got), fn.__name__
        assert abs(got) <= fn(0.0, sys_, spec, cfg), fn.__name__
        if bath == "strict":  # the resonance has decayed, and the tail is far below abs_tol
            assert abs(got) <= cfg.abs_tol, fn.__name__


class TestTauArrays:
    """One call for an array of tau: the values of single calls, in bounded memory."""

    @pytest.mark.parametrize("bath,omega_max", [
        (BathSpec.strict_ohmic(1e-4), 1e3), (BathSpec.strict_ohmic(0.3), 1e3),
        (BathSpec.strict_ohmic(300.0), 1e3), (BathSpec.cutoff_ohmic(0.5, 3.0), None)],
        ids=("weak", "moderate", "overdamped", "cutoff"))
    def test_array_agrees_with_single_calls(self, bath, omega_max):
        sys_ = SystemSpec(temperature=0.2)
        cfg = QuadratureConfig(omega_max=omega_max)
        taus = np.linspace(0.0, 10.0, 41)
        for _, fn in CHANNELS:
            got = fn(taus, sys_, bath, cfg)
            assert got.shape == taus.shape
            single = np.array([fn(float(tau), sys_, bath, cfg) for tau in taus])
            assert np.all(np.abs(got - single) <= cfg.rel_tol * abs(single[0])), fn.__name__
        # a 0-d array is a scalar
        assert type(fdt.position_correlation(np.float64(2.0), sys_, bath, cfg)) is float

    def test_memory_flat_in_the_number_of_tau(self):
        # tau goes through the quadrature in blocks: beyond the output array,
        # 4,000 tau take no more than 400 do, within 1 MB
        sys_, bath = SystemSpec(), BathSpec.strict_ohmic(1e-4)
        cfg = QuadratureConfig(omega_max=1e3)
        fdt.velocity_correlation(np.linspace(0.0, 10.0, 3), sys_, bath, cfg)  # lazy set-up
        peaks = []
        for n in (400, 4000):
            tracemalloc.start()
            try:
                out = fdt.velocity_correlation(np.linspace(0.0, 10.0, n), sys_, bath, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6, peaks
