"""Tests for repro.baselines."""

import numpy as np
import pytest

from repro.baselines import (
    AdaptiveKernelDensityModel,
    ExtremeLowDensityModel,
    KSigmaModel,
    NaiveChangePointDetector,
    naive,
    sweep_tradeoff,
)


def make_pairs(rng, n_pos=15, n_neg=15):
    positives, negatives = [], []
    for _ in range(n_pos):
        historic = rng.normal(0.001, 0.00002, 400)
        analysis = rng.normal(0.0013, 0.00002, 150)  # clear shift
        positives.append((historic, analysis))
    for _ in range(n_neg):
        historic = rng.normal(0.001, 0.00002, 400)
        analysis = rng.normal(0.001, 0.00002, 150)
        negatives.append((historic, analysis))
    return positives, negatives


class TestKSigma:
    def test_flags_shift(self, rng):
        h = rng.normal(0, 1, 300)
        a = rng.normal(3, 1, 100)
        assert KSigmaModel(2.0).is_anomalous(h, a)

    def test_passes_noise(self, rng):
        h = rng.normal(0, 1, 300)
        a = rng.normal(0, 1, 100)
        assert not KSigmaModel(2.0).is_anomalous(h, a)

    def test_empty_windows(self):
        assert not KSigmaModel(1.0).is_anomalous([], [1.0])

    def test_constant_historic(self):
        assert KSigmaModel(1.0).is_anomalous([1.0] * 10, [2.0] * 5)
        assert not KSigmaModel(1.0).is_anomalous([1.0] * 10, [1.0] * 5)


class TestKernelDensity:
    def test_flags_out_of_distribution(self, rng):
        h = rng.normal(0, 1, 200)
        a = rng.normal(6, 0.5, 50)
        assert AdaptiveKernelDensityModel(0.05).is_anomalous(h, a)

    def test_passes_in_distribution(self, rng):
        h = rng.normal(0, 1, 200)
        a = rng.normal(0, 1, 50)
        assert not AdaptiveKernelDensityModel(0.01).is_anomalous(h, a)

    def test_short_historic_no_flag(self):
        assert not AdaptiveKernelDensityModel(0.05).is_anomalous([1.0, 2.0], [5.0])


class TestExtremeLowDensity:
    def test_flags_extreme_fraction(self, rng):
        h = rng.normal(0, 1, 500)
        a = np.full(50, 10.0)
        assert ExtremeLowDensityModel(0.5).is_anomalous(h, a)

    def test_passes_normal(self, rng):
        h = rng.normal(0, 1, 500)
        a = rng.normal(0, 1, 50)
        assert not ExtremeLowDensityModel(0.5).is_anomalous(h, a)


class TestSweepTradeoff:
    def test_monotone_tradeoff(self, rng):
        positives, negatives = make_pairs(rng)
        points = sweep_tradeoff(KSigmaModel, positives, negatives)
        fps = [p.false_positive_rate for p in points]
        fns = [p.false_negative_rate for p in points]
        # Raising sensitivity lowers FPs and raises (or keeps) FNs.
        assert fps == sorted(fps, reverse=True)
        assert fns == sorted(fns)

    def test_rates_in_unit_interval(self, rng):
        positives, negatives = make_pairs(rng)
        for model in (KSigmaModel, AdaptiveKernelDensityModel, ExtremeLowDensityModel):
            for point in sweep_tradeoff(model, positives, negatives):
                assert 0.0 <= point.false_positive_rate <= 1.0
                assert 0.0 <= point.false_negative_rate <= 1.0

    def test_empty_inputs(self):
        points = sweep_tradeoff(KSigmaModel, [], [])
        assert all(p.false_positive_rate == 0.0 for p in points)


class TestNaiveChangePoint:
    def test_flags_transients_unlike_fbdetect(self):
        # The naive baseline reports a recovered transient as a regression.
        rng = np.random.default_rng(5)
        analysis = rng.normal(0.001, 0.00002, 200)
        analysis[100:180] += 0.0004  # transient
        detector = NaiveChangePointDetector()
        assert detector.is_anomalous([], analysis)

    def test_detects_real_steps_too(self, rng):
        analysis = rng.normal(0.001, 0.00002, 200)
        analysis[100:] += 0.0004
        assert NaiveChangePointDetector().is_anomalous([], analysis)

    def test_rejects_flat(self, rng, monkeypatch):
        monkeypatch.setattr(naive, "SIGNIFICANCE_LEVEL", 1e-6)
        assert not NaiveChangePointDetector().is_anomalous(
            [], rng.normal(0.001, 0.00002, 200)
        )
