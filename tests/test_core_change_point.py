"""Tests for repro.core.change_point."""

import pickle

import numpy as np
import pytest

from repro.core.change_point import ChangePointDetector


class TestChangePointDetector:
    def test_detects_clear_step(self, step_series):
        candidate = ChangePointDetector().detect(step_series)
        assert candidate is not None
        assert abs(candidate.index - 100) <= 3
        assert candidate.magnitude == pytest.approx(1.0, abs=0.3)

    def test_rejects_pure_noise(self, rng):
        detector = ChangePointDetector()
        rejections = sum(
            detector.detect(rng.normal(0, 1, 150)) is None for _ in range(20)
        )
        # CUSUM scans for the *best* split, so the effective false-alarm
        # rate exceeds the nominal 1% (a multiple-testing effect the
        # paper's production numbers also show — millions of change
        # points before the went-away filter).  The bulk must still be
        # rejected here.
        assert rejections >= 12

    def test_detects_tiny_shift_given_low_noise(self, rng):
        # A 0.005%-scale shift with hyperscale-averaged noise.
        x = np.concatenate(
            [rng.normal(0.001, 0.000005, 150), rng.normal(0.00105, 0.000005, 150)]
        )
        candidate = ChangePointDetector().detect(x)
        assert candidate is not None
        assert abs(candidate.index - 150) <= 3
        assert candidate.magnitude == pytest.approx(0.00005, rel=0.2)

    def test_too_short_returns_none(self):
        assert ChangePointDetector().detect([1.0, 2.0, 3.0]) is None

    def test_detect_increase_filters_improvements(self, rng):
        improvement = np.concatenate([rng.normal(5, 0.1, 80), rng.normal(3, 0.1, 80)])
        detector = ChangePointDetector()
        assert detector.detect(improvement) is not None
        assert detector.detect_increase(improvement) is None

    def test_detect_increase_keeps_regressions(self, step_series):
        assert ChangePointDetector().detect_increase(step_series) is not None

    def test_invalid_significance_raises(self):
        with pytest.raises(ValueError):
            ChangePointDetector(significance_level=0.0)

    def test_em_refines_cusum_guess(self, rng):
        # A small step near the edge where CUSUM is weakest.
        x = np.concatenate([rng.normal(0, 0.2, 160), rng.normal(1.0, 0.2, 40)])
        candidate = ChangePointDetector().detect(x)
        assert candidate is not None
        assert abs(candidate.index - 160) <= 2

    def test_p_value_below_significance(self, step_series):
        candidate = ChangePointDetector(significance_level=0.01).detect(step_series)
        assert candidate.p_value < 0.01

    def test_detector_pickled_before_the_em_budget_went_still_detects(self, step_series):
        # A v2 checkpoint written before ``max_em_iterations`` was removed
        # carries it in the pickled ``__dict__``.
        old = ChangePointDetector()
        old.__dict__["max_em_iterations"] = 50
        restored = pickle.loads(pickle.dumps(old))
        assert restored.detect(step_series) == ChangePointDetector().detect(step_series)
