"""Quadrature helpers: stable coth, panel integration, config validation."""

import cmath
import math

import numpy as np
import pytest

from qlesim import fdt, microbath, quadrature
from qlesim.bath import BathSpec, SystemSpec
from qlesim.errors import DomainError, QuadratureError
from qlesim.quadrature import (
    QuadratureConfig,
    coth,
    integrate_cosine,
    scaled_omega_coth,
)


class TestCoth:
    def test_matches_reference_values(self):
        assert coth(0.5) == pytest.approx(1.0 / math.tanh(0.5), rel=1e-15)
        assert coth(50.0) == pytest.approx(1.0, rel=1e-15)

    def test_series_agrees_with_direct_at_switch(self):
        # the series branch and the direct 1/tanh agree at the threshold
        x = 1e-4
        series = 1.0 / x + x / 3.0 - x**3 / 45.0
        assert series == pytest.approx(1.0 / math.tanh(x), rel=1e-14)

    def test_odd(self):
        assert coth(-0.3) == pytest.approx(-coth(0.3), rel=1e-15)

    def test_scaled_omega_coth_limit(self):
        # w * coth(a w) -> 1/a as w -> 0
        assert scaled_omega_coth(0.0, 0.5) == pytest.approx(2.0, rel=1e-12)
        assert scaled_omega_coth(1e-300, 0.5) == pytest.approx(2.0, rel=1e-12)
        # a float at the origin, on both sides of the switch |a w| = 1e-4
        # from the series to the direct form, and far from it
        for a in (0.5, 3.0):
            edge = 1e-4 / a
            for w in (0.0, 1e-300, 1e-9, edge * (1 - 1e-12), edge, edge * (1 + 1e-12),
                      -edge, 0.3, 3.0, 700.0):
                got, x = scaled_omega_coth(w, a), a * w
                assert type(got) is float
                if x != 0.0:
                    assert got == pytest.approx(w / math.tanh(x), rel=1e-14)
                if abs(x) < 1e-3:
                    assert got == pytest.approx((1.0 + x * x / 3.0) / a, rel=1e-15)


def spied_integrands(monkeypatch, module, call):
    """The integrands that ``call`` hands to ``module.integrate_cosine``."""
    seen, integrate = [], module.integrate_cosine

    def spy(f, *args, **kwargs):
        seen.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(module, "integrate_cosine", spy)
    call()
    return seen


@pytest.mark.parametrize("module,call", [
    (fdt, lambda: fdt.position_correlation(0.3, SystemSpec(), BathSpec.strict_ohmic(0.1))),
    (fdt, lambda: fdt.velocity_correlation(0.3, SystemSpec(), BathSpec.cutoff_ohmic(0.5, 3.0))),
    (fdt, lambda: fdt.density_moment("k", 1, 0.1)),
    (microbath, lambda: microbath.noise_autocorrelation_quadrature(
        SystemSpec(), BathSpec.cutoff_ohmic(0.5, 3.0), 1.0)),
], ids=("strict", "cutoff", "density_moment", "noise_autocorrelation"))
def test_integrands_map_arrays_to_same_shape_arrays(monkeypatch, module, call):
    integrands = spied_integrands(monkeypatch, module, call)
    assert integrands
    omega = np.array([[1e-9, 0.7, 2.9], [1.3, 2.2, 0.05]])
    for f in integrands:
        got = f(omega)
        assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == omega.shape
        # each element as it comes alone
        for w, value in zip(omega.ravel(), got.ravel()):
            assert f(np.array([w]))[0] == value


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-8 and cfg.abs_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"abs_tol": 0.0},
            {"omega_max": -2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)


class TestIntegratePanels:
    def test_plain_gaussian(self):
        # Int_0^inf e^-x^2 dx; the tail beyond 6 is below e^-36 / 12 < 2e-17
        cfg = QuadratureConfig()
        val, err = integrate_cosine(
            lambda x: np.exp(-x * x), [0.0, 1.0, 3.0, 6.0], cfg, label="gaussian",
        )
        assert val == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)
        assert err < 1e-8

    def test_cosine_weight(self):
        # Int_0^inf e^-x cos(2x) dx = 1/5; the tail beyond 40 is below e^-40 < 5e-18
        cfg = QuadratureConfig()
        val, _ = integrate_cosine(
            lambda x: np.exp(-x), [0.0, 2.0, 10.0, 40.0], cfg, 2.0, label="lorentz line",
        )
        assert val == pytest.approx(0.2, rel=1e-8)

    def test_nonmonotone_edges_rejected(self):
        cfg = QuadratureConfig()
        with pytest.raises(DomainError):
            integrate_cosine(lambda x: x, [0.0, 1.0, 0.5], cfg)
        with pytest.raises(DomainError):  # once more, past the cached geometry
            integrate_cosine(lambda x: x, (0.0, 1.0, 0.5), cfg)


class TestPanelGeometry:
    """The panels of an edge set are built once, read-only, per distinct edge set."""

    EDGES = (0.0, 0.35, 0.7, 1.4, 2.8, 5.0)

    def test_arrays_are_read_only(self):
        panels = quadrature._edge_panels(self.EDGES)
        assert panels is quadrature._edge_panels(self.EDGES)
        for part in panels:
            with pytest.raises(ValueError):
                part[0] = 1.0

    @pytest.mark.parametrize("f", (lambda w: np.exp(-w), lambda w: 0.01 / (1e-4 + (w - 0.5) ** 2)),
                             ids=("kept", "split"))
    def test_edge_containers_give_identical_values(self, f):
        # e^-w is resolved on the cached panels, the narrow Lorentzian on split ones
        taus = np.array([0.0, 1.0, 7.3, 40.0])
        got = []
        for warm in (False, True):
            for edges in (list(self.EDGES), self.EDGES, np.array(self.EDGES)):
                if not warm:
                    quadrature._edge_panels.cache_clear()
                value, err = integrate_cosine(f, edges, QuadratureConfig(), taus)
                got.append(value.tobytes() + err.tobytes())
        assert len(set(got)) == 1

    def test_edge_sets_differing_in_one_edge_do_not_share(self):
        moved = (*self.EDGES[:2], 0.71, *self.EDGES[3:])
        a, b = quadrature._edge_panels(self.EDGES), quadrature._edge_panels(moved)
        assert a is not b
        assert a[0].tolist() == list(self.EDGES[:-1]) and b[0].tolist() == list(moved[:-1])

    def test_cache_size_is_bounded(self):
        cfg = QuadratureConfig()
        for k in range(1000):
            integrate_cosine(np.exp, (0.0, 1.0 + k * 1e-3), cfg)
        info = quadrature._edge_panels.cache_info()
        assert info.maxsize == quadrature._GEOMETRIES and info.currsize <= info.maxsize


# tau up to 10 on [0, 1000]: the weight turns through up to 1,600 periods
TAUS = np.array([0.0, 1e-3, 0.37, 1.0, 2.5, 7.3, 10.0])


def exact_monomial(n, upper, tau):
    """Int_0^upper (w / upper)^n cos(w tau) dw in closed form.

    By parts where the cosine turns through more than a radian, and from the
    cosine's Taylor series below that, where the by-parts terms would cancel.
    """
    kappa = upper * tau
    if kappa <= 1.0:
        return upper * sum((-1) ** j * kappa ** (2 * j) / (math.factorial(2 * j) * (n + 2 * j + 1))
                           for j in range(12))
    total, term = 0j, 1.0  # term = n! / (n - k)! upper^-k
    for k in range(n + 1):
        total += (-1) ** k * term * cmath.exp(1j * kappa) / (1j * tau) ** (k + 1)
        term *= (n - k) / upper
    # at w = 0 only the k = n term is left
    total -= (-1) ** n * math.factorial(n) / upper**n / (1j * tau) ** (n + 1)
    return total.real


class TestIntegrateCosine:
    """The cosine integrated exactly against the panel interpolants, whatever tau."""

    @pytest.mark.parametrize("n", (0, 1, 3, 7, 15))
    def test_polynomials_at_large_kappa(self, n):
        cfg = QuadratureConfig()
        got, err = integrate_cosine(lambda w: (w / 1e3) ** n, [0.0, 1e3], cfg, TAUS)
        want = np.array([exact_monomial(n, 1e3, tau) for tau in TAUS])
        assert np.all(np.abs(got - want) <= err), (got - want, err)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_exponential_at_large_kappa(self):
        cfg = QuadratureConfig()
        got, err = integrate_cosine(lambda w: np.exp(-w), [0.0, 1e3], cfg, TAUS)
        z = -1.0 + 1j * TAUS
        want = ((np.exp(1e3 * z) - 1.0) / z).real
        assert np.all(np.abs(got - want) <= err), (got - want, err)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=50.0 * cfg.abs_tol)

    @pytest.mark.parametrize("kink", (0.3, 1.0 / 3.0, 0.7))
    def test_kink_off_the_edges_matches_or_raises(self, kink):
        # |w - kink| has no polynomial interpolant of small error on a panel
        # across the kink: splitting closes in on it, or the quadrature raises
        def primitive(w, tau):  # of (w - kink) cos(w tau)
            if tau == 0.0:
                return 0.5 * (w - kink) ** 2
            return (w - kink) * math.sin(w * tau) / tau + math.cos(w * tau) / tau**2

        cfg = QuadratureConfig()
        try:
            got, err = integrate_cosine(lambda w: np.abs(w - kink), [0.0, 1.0], cfg, TAUS)
        except QuadratureError:
            return
        for tau, value in zip(TAUS, got):
            want = (primitive(1.0, tau) - 2.0 * primitive(kink, tau) + primitive(0.0, tau))
            assert abs(value - want) <= 50.0 * max(cfg.abs_tol, cfg.rel_tol * abs(want)), tau

    def test_scalar_tau_gives_floats(self):
        value, err = integrate_cosine(lambda w: np.exp(-w), [0.0, 5.0], QuadratureConfig(), 1.5)
        assert type(value) is float and type(err) is float
