"""Tests for repro.stats.stl."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.stats import stl
from repro.stats.stl import loess_smooth, stl_decompose


class TestLoessSmooth:
    def test_recovers_line(self):
        y = 2.0 * np.arange(50) + 1.0
        smoothed = loess_smooth(y, span=0.3)
        assert np.allclose(smoothed, y, atol=1e-6)

    def test_reduces_noise_variance(self, rng):
        y = np.sin(np.arange(200) / 30) + rng.normal(0, 0.5, 200)
        smoothed = loess_smooth(y, span=0.2)
        assert smoothed.std() < y.std()

    def test_degree_zero_weighted_mean(self):
        y = np.array([0.0, 10.0, 0.0, 10.0, 0.0, 10.0])
        with patch.object(stl, "LOESS_DEGREE", 0):
            smoothed = loess_smooth(y, span=1.0)
        assert np.all((smoothed > 0) & (smoothed < 10))

    def test_empty(self):
        assert loess_smooth([]).size == 0

    def test_invalid_span_raises(self):
        with pytest.raises(ValueError):
            loess_smooth([1.0, 2.0], span=0.0)
        with pytest.raises(ValueError):
            loess_smooth([1.0, 2.0], span=1.5)

    def test_invalid_degree_raises(self):
        with patch.object(stl, "LOESS_DEGREE", 2), pytest.raises(ValueError):
            loess_smooth([1.0, 2.0])

    def test_length_preserved(self, rng):
        y = rng.normal(0, 1, 37)
        assert loess_smooth(y).size == 37


class TestStlDecompose:
    def _seasonal_series(self, rng, n=240, period=24, trend_slope=0.01, noise=0.1):
        t = np.arange(n)
        return (
            5.0
            + trend_slope * t
            + np.sin(2 * np.pi * t / period)
            + rng.normal(0, noise, n)
        ), t

    def test_components_sum_to_observed(self, rng):
        y, _ = self._seasonal_series(rng)
        result = stl_decompose(y, period=24)
        assert np.allclose(result.seasonal + result.trend + result.residual, y)

    def test_seasonal_component_periodic(self, rng):
        y, _ = self._seasonal_series(rng, noise=0.05)
        result = stl_decompose(y, period=24)
        # Interior cycles (away from moving-average edge effects) repeat.
        first = result.seasonal[24:48]
        second = result.seasonal[48:72]
        assert np.allclose(first, second, atol=1e-6)

    def test_seasonal_captures_amplitude(self, rng):
        y, _ = self._seasonal_series(rng, noise=0.05)
        result = stl_decompose(y, period=24)
        assert result.seasonal.max() == pytest.approx(1.0, abs=0.3)

    def test_trend_captures_slope(self, rng):
        y, t = self._seasonal_series(rng, trend_slope=0.05, noise=0.05)
        result = stl_decompose(y, period=24)
        fitted_slope = np.polyfit(t, result.trend, 1)[0]
        assert fitted_slope == pytest.approx(0.05, rel=0.3)

    def test_deseasonalized_removes_season(self, rng):
        y, _ = self._seasonal_series(rng, trend_slope=0.0, noise=0.05)
        result = stl_decompose(y, period=24)
        assert result.deseasonalized.std() < y.std() * 0.5

    def test_seasonal_zero_mean(self, rng):
        y, _ = self._seasonal_series(rng)
        result = stl_decompose(y, period=24)
        assert result.seasonal.mean() == pytest.approx(0.0, abs=1e-9)

    def test_period_too_small_raises(self):
        with pytest.raises(ValueError):
            stl_decompose(np.zeros(50), period=1)

    def test_series_too_short_raises(self):
        with pytest.raises(ValueError):
            stl_decompose(np.zeros(10), period=8)

    def test_step_survives_into_trend(self, rng):
        # A persistent step should show in trend+residual, not seasonal.
        n, period = 240, 24
        t = np.arange(n)
        y = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.05, n)
        y[n // 2 :] += 2.0
        result = stl_decompose(y, period=period)
        clean = result.deseasonalized
        shift = clean[n // 2 :].mean() - clean[: n // 2].mean()
        assert shift == pytest.approx(2.0, abs=0.4)
