"""Quadrature helpers: stable coth, panel integration, config validation."""

import math

import pytest

from qlesim import fdt, microbath
from qlesim.bath import BathSpec, SystemSpec
from qlesim.errors import DomainError
from qlesim.quadrature import (
    QuadratureConfig,
    coth,
    integrate_panels,
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
    """The integrands that ``call`` hands to ``module.integrate_panels``."""
    seen, integrate = [], module.integrate_panels

    def spy(f, *args, **kwargs):
        seen.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(module, "integrate_panels", spy)
    call()
    return seen


@pytest.mark.parametrize("module,call", [
    (fdt, lambda: fdt.position_correlation(0.3, SystemSpec(), BathSpec.strict_ohmic(0.1))),
    (fdt, lambda: fdt.velocity_correlation(0.3, SystemSpec(), BathSpec.cutoff_ohmic(0.5, 3.0))),
    (fdt, lambda: fdt.density_moment("k", 1, 0.1)),
    (microbath, lambda: microbath.noise_autocorrelation_quadrature(
        SystemSpec(), BathSpec.cutoff_ohmic(0.5, 3.0), 1.0)),
], ids=("strict", "cutoff", "density_moment", "noise_autocorrelation"))
def test_integrands_map_floats_to_floats(monkeypatch, module, call):
    integrands = spied_integrands(monkeypatch, module, call)
    assert integrands
    for f in integrands:
        for omega in (1e-9, 0.7, 2.9):
            assert type(f(omega)) is float


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
        cfg = QuadratureConfig()
        val, err = integrate_panels(
            lambda x: math.exp(-x * x), [0.0, 1.0, 3.0], cfg, tail_to_inf=True,
            label="gaussian",
        )
        assert val == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)
        assert err < 1e-8

    def test_cosine_weight(self):
        # Int_0^inf e^-x cos(2x) dx = 1/5
        cfg = QuadratureConfig()
        val, _ = integrate_panels(
            lambda x: math.exp(-x), [0.0, 2.0, 10.0], cfg, tau=2.0,
            tail_to_inf=True, label="lorentz line",
        )
        assert val == pytest.approx(0.2, rel=1e-8)

    def test_nonmonotone_edges_rejected(self):
        cfg = QuadratureConfig()
        with pytest.raises(DomainError):
            integrate_panels(lambda x: x, [0.0, 1.0, 0.5], cfg)
