"""Quadrature helpers: stable coth, panel integration, config validation."""

import math

import numpy as np
import pytest

from qlesim.errors import DomainError, QuadratureError
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
        w = 3.0
        assert scaled_omega_coth(w, 0.5) == pytest.approx(
            w / math.tanh(0.5 * w), rel=1e-14
        )


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
            {"max_panels": 1},
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

    def test_panel_budget_enforced(self):
        cfg = QuadratureConfig(max_panels=4)
        with pytest.raises(QuadratureError):
            integrate_panels(lambda x: x, list(np.linspace(0, 1, 10)), cfg)
