"""Tests for repro.substrates.canary."""

import numpy as np
import pytest

from repro.substrates import canary as canary_module
from repro.substrates.canary import compare_canary


class TestCanaryAnalysis:
    def test_detects_clear_regression(self, rng):
        control = rng.normal(100.0, 2.0, 200)
        canary = rng.normal(103.0, 2.0, 200)
        verdict = compare_canary(control, canary)
        assert verdict.regressed
        assert verdict.relative_delta == pytest.approx(0.03, abs=0.01)
        lo, hi = verdict.confidence_interval
        assert lo <= verdict.relative_delta <= hi

    def test_no_difference_no_regression(self, rng):
        control = rng.normal(100.0, 2.0, 200)
        canary = rng.normal(100.0, 2.0, 200)
        assert not compare_canary(control, canary).regressed

    def test_improvement_not_flagged(self, rng):
        control = rng.normal(100.0, 2.0, 200)
        canary = rng.normal(95.0, 2.0, 200)
        verdict = compare_canary(control, canary)
        assert not verdict.regressed
        assert verdict.relative_delta < 0

    def test_lower_is_worse_orientation(self, rng, monkeypatch):
        monkeypatch.setattr(canary_module, "HIGHER_IS_WORSE", False)
        control = rng.normal(1000.0, 10.0, 200)   # throughput
        canary = rng.normal(950.0, 10.0, 200)
        verdict = compare_canary(control, canary)
        assert verdict.regressed

    def test_min_relative_delta_guard(self, rng, monkeypatch):
        # Statistically significant but operationally negligible.
        monkeypatch.setattr(canary_module, "MIN_RELATIVE_DELTA", 0.005)
        control = rng.normal(100.0, 0.1, 100_000)
        canary = rng.normal(100.01, 0.1, 100_000)
        assert not compare_canary(control, canary).regressed

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            compare_canary([1.0], [1.0, 2.0])

    def test_zero_control_mean(self):
        verdict = compare_canary([0.0, 0.0, 0.0], [1.0, 1.0, 1.1])
        assert verdict.relative_delta == float("inf")

    def test_corroborates_fbdetect_magnitude(self, rng):
        """The §6.2 workflow: a canary comparison recovers the same
        magnitude as the in-production regression."""
        injected = 0.02  # 2% regression
        control = rng.normal(50.0, 0.5, 500)
        canary = rng.normal(50.0 * (1 + injected), 0.5, 500)
        verdict = compare_canary(control, canary)
        assert verdict.regressed
        assert verdict.relative_delta == pytest.approx(injected, rel=0.2)
