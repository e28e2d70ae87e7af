"""Tests for repro.stats.cusum."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.stats import cusum
from repro.stats.cusum import cusum_changepoint, cusum_statistic


class TestCusumStatistic:
    def test_empty_series(self):
        assert cusum_statistic([]).size == 0

    def test_sums_to_zero_at_end(self, rng):
        curve = cusum_statistic(rng.normal(0, 1, 50))
        assert curve[-1] == pytest.approx(0.0, abs=1e-9)

    def test_step_series_has_extremum_at_step(self):
        x = np.concatenate([np.zeros(50), np.ones(50)])
        curve = cusum_statistic(x)
        assert int(np.argmax(np.abs(curve))) == 49

    def test_constant_series_is_flat(self):
        curve = cusum_statistic(np.full(30, 7.0))
        assert np.allclose(curve, 0.0)


class TestCusumChangepoint:
    def test_locates_step(self, step_series):
        result = cusum_changepoint(step_series)
        assert result is not None
        assert abs(result.index - 100) <= 3

    def test_mean_estimates(self, step_series):
        result = cusum_changepoint(step_series)
        assert result.mean_before == pytest.approx(0.0, abs=0.2)
        assert result.mean_after == pytest.approx(1.0, abs=0.2)
        assert result.shift == pytest.approx(1.0, abs=0.3)

    def test_too_short_returns_none(self):
        assert cusum_changepoint([1.0, 2.0, 3.0]) is None

    def test_statistic_higher_for_cleaner_step(self, rng):
        clean = np.concatenate([rng.normal(0, 0.1, 100), rng.normal(1, 0.1, 100)])
        noisy = np.concatenate([rng.normal(0, 2.0, 100), rng.normal(1, 2.0, 100)])
        assert cusum_changepoint(clean).statistic > cusum_changepoint(noisy).statistic

    def test_respects_min_segment(self):
        x = np.concatenate([np.zeros(4), np.ones(46)])
        with patch.object(cusum, "MIN_SEGMENT", 10):
            result = cusum_changepoint(x)
        assert result.index >= 10
        assert result.index <= 40

    def test_constant_series_zero_statistic(self):
        result = cusum_changepoint(np.full(20, 3.0))
        assert result.statistic == 0.0

    def test_decrease_also_detected(self, rng):
        x = np.concatenate([rng.normal(5, 0.2, 80), rng.normal(2, 0.2, 80)])
        result = cusum_changepoint(x)
        assert abs(result.index - 80) <= 3
        assert result.shift < 0
