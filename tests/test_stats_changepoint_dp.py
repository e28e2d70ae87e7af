"""Tests for repro.stats.changepoint_dp."""

import numpy as np
import pytest

from repro.stats.changepoint_dp import best_split_normal_loss


class TestBestSplit:
    def test_finds_step(self, step_series):
        result = best_split_normal_loss(step_series)
        assert abs(result.index - 100) <= 3

    def test_gain_positive_for_real_step(self, step_series):
        assert best_split_normal_loss(step_series).gain > 0

    def test_gain_small_for_noise(self, rng):
        noise = rng.normal(0, 1, 200)
        step = np.concatenate([rng.normal(0, 1, 100), rng.normal(5, 1, 100)])
        assert (
            best_split_normal_loss(noise).gain < best_split_normal_loss(step).gain
        )

    def test_too_short_none(self):
        assert best_split_normal_loss([1.0, 2.0, 3.0]) is None

    def test_loss_matches_manual_rss(self):
        x = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        result = best_split_normal_loss(x, min_segment=2)
        assert result.index == 3
        assert result.loss == pytest.approx(0.0, abs=1e-9)

    def test_min_segment_respected(self):
        x = np.concatenate([np.zeros(3), np.ones(47)])
        result = best_split_normal_loss(x, min_segment=10)
        assert 10 <= result.index <= 40
