"""Tests for repro.stats.autocorrelation."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.stats import autocorrelation
from repro.stats.autocorrelation import acf, detect_season_length


class TestAcf:
    def test_lag_zero_is_one(self, rng):
        result = acf(rng.normal(0, 1, 100))
        assert result[0] == pytest.approx(1.0)

    def test_periodic_series_peaks_at_period(self, rng):
        t = np.arange(300)
        y = np.sin(2 * np.pi * t / 25) + rng.normal(0, 0.1, 300)
        correlations = acf(y, max_lag=60)
        assert correlations[25] > 0.7

    def test_white_noise_low_correlations(self, rng):
        correlations = acf(rng.normal(0, 1, 2000), max_lag=20)
        assert np.all(np.abs(correlations[1:]) < 0.1)

    def test_constant_series(self):
        correlations = acf(np.full(50, 3.0), max_lag=10)
        assert correlations[0] == 1.0
        assert np.all(correlations[1:] == 0.0)

    def test_empty(self):
        assert acf([]).size == 0

    def test_max_lag_respected(self, rng):
        assert acf(rng.normal(0, 1, 100), max_lag=7).size == 8


class TestDetectSeasonLength:
    def test_finds_true_period(self, rng):
        t = np.arange(400)
        y = np.sin(2 * np.pi * t / 20) + rng.normal(0, 0.1, 400)
        assert detect_season_length(y) == 20

    def test_no_season_in_noise(self, rng):
        assert detect_season_length(rng.normal(0, 1, 300)) is None

    def test_no_season_in_trend(self):
        with patch.object(autocorrelation, "MAX_PERIOD", 30):
            assert detect_season_length(np.arange(100, dtype=float)) is None

    def test_short_series_none(self):
        assert detect_season_length([1.0, 2.0, 3.0]) is None

    def test_min_period_respected(self, rng):
        t = np.arange(400)
        y = np.sin(2 * np.pi * t / 5) + rng.normal(0, 0.05, 400)
        # Period 5 exists but we forbid periods below 10: harmonic at 10 ok.
        period = detect_season_length(y, min_period=10)
        assert period is None or period % 5 == 0
