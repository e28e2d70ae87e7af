"""Tests for repro.stats.mann_kendall."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.stats import mann_kendall
from repro.stats.mann_kendall import mann_kendall_test


class TestMannKendall:
    def test_increasing_trend(self, rng):
        x = np.arange(50) + rng.normal(0, 0.5, 50)
        result = mann_kendall_test(x)
        assert result.trend == "increasing"
        assert result.is_increasing
        assert result.z > 0

    def test_decreasing_trend(self, rng):
        x = -np.arange(50) + rng.normal(0, 0.5, 50)
        result = mann_kendall_test(x)
        assert result.trend == "decreasing"
        assert result.is_decreasing

    def test_no_trend_in_noise(self, rng):
        result = mann_kendall_test(rng.normal(0, 1, 100))
        assert result.trend == "no trend"

    def test_short_series_no_trend(self):
        assert mann_kendall_test([1.0, 2.0]).trend == "no trend"

    def test_constant_series(self):
        result = mann_kendall_test(np.full(30, 5.0))
        assert result.trend == "no trend"
        assert result.s == 0

    def test_s_statistic_perfect_monotone(self):
        n = 10
        result = mann_kendall_test(np.arange(n, dtype=float))
        assert result.s == n * (n - 1) // 2

    def test_tie_handling(self):
        # Heavily tied but rising series should still detect the trend.
        x = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 6)
        result = mann_kendall_test(x)
        assert result.trend == "increasing"

    def test_significance_level(self, rng):
        x = np.arange(20) * 0.05 + rng.normal(0, 1, 20)  # weak trend
        with patch.object(mann_kendall, "SIGNIFICANCE_LEVEL", 1e-10):
            strict = mann_kendall_test(x)
        assert strict.trend == "no trend"

    def test_p_value_in_unit_interval(self, rng):
        result = mann_kendall_test(rng.normal(0, 1, 40))
        assert 0.0 <= result.p_value <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_reports_no_trend(self, bad):
        # A NaN used to die in int(nan); a boolean-compare S would count
        # it silently.  The offline detector suite and direct API users
        # are not behind the pipeline's non-finite guard.
        values = np.arange(12.0)
        values[[4, 9]] = bad
        result = mann_kendall_test(values)
        assert (result.s, result.z, result.p_value, result.trend) == (0, 0.0, 1.0, "no trend")
