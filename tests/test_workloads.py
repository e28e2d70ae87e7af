"""Tests for repro.workloads."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.workloads import generators
from repro.workloads import (
    LabeledWindow,
    WindowKind,
    build_preset,
    generate_corpus,
    generate_labeled_window,
    preset_names,
)


class TestGenerateLabeledWindow:
    def test_window_slices(self, rng):
        with patch.multiple(
            generators, HISTORIC_POINTS=100, ANALYSIS_POINTS=40, EXTENDED_POINTS=10
        ):
            window = generate_labeled_window(WindowKind.CLEAN, rng)
        assert window.historic.size == 100
        assert window.analysis.size == 40
        assert window.extended.size == 10
        assert window.values.size == 150

    def test_regression_has_magnitude(self, rng):
        window = generate_labeled_window(WindowKind.REGRESSION, rng)
        assert window.is_true_regression
        assert window.magnitude > 0
        # The shift is actually present in the data.
        assert window.extended.mean() > window.historic.mean() + 0.5 * window.magnitude

    def test_explicit_magnitude(self, rng):
        window = generate_labeled_window(WindowKind.REGRESSION, rng, magnitude=0.0005)
        assert window.magnitude == 0.0005

    def test_transient_recovers(self, rng):
        window = generate_labeled_window(WindowKind.TRANSIENT, rng)
        assert not window.is_true_regression
        assert window.magnitude == 0.0
        # Extended window back at baseline.
        assert window.extended.mean() == pytest.approx(window.historic.mean(), rel=0.05)

    def test_seasonal_has_periodicity(self, rng):
        window = generate_labeled_window(WindowKind.SEASONAL, rng)
        from repro.stats.autocorrelation import detect_season_length

        assert detect_season_length(window.values) is not None

    def test_gradual_is_true_regression(self, rng):
        window = generate_labeled_window(WindowKind.GRADUAL, rng)
        assert window.is_true_regression
        assert window.values[-20:].mean() > window.values[:20].mean()

    def test_values_nonnegative(self, rng):
        for kind in WindowKind:
            window = generate_labeled_window(kind, rng)
            assert window.values.min() >= 0.0


class TestGenerateCorpus:
    def test_composition(self):
        corpus = generate_corpus(
            n_regressions=5, n_clean=7, n_transients=3, n_seasonal=2, n_gradual=1
        )
        assert len(corpus) == 18
        kinds = [w.kind for w in corpus]
        assert kinds.count(WindowKind.REGRESSION) == 5
        assert kinds.count(WindowKind.CLEAN) == 7

    def test_deterministic(self):
        c1 = generate_corpus(3, 3, 3, seed=42)
        c2 = generate_corpus(3, 3, 3, seed=42)
        assert all(np.allclose(a.values, b.values) for a, b in zip(c1, c2))

    def test_magnitude_distribution(self):
        corpus = generate_corpus(n_regressions=50, n_clean=0, n_transients=0, seed=7)
        magnitudes = np.array([w.magnitude for w in corpus if w.is_true_regression])
        assert magnitudes.size == 50
        # Paper-like spread: smallest well below median, largest well above.
        assert magnitudes.min() < np.median(magnitudes) / 3
        assert magnitudes.max() > np.median(magnitudes) * 3


class TestPresets:
    def test_all_presets_build(self):
        for key in preset_names():
            preset = build_preset(key)
            assert preset.config is not None
            assert preset.service.n_servers > 0
            assert preset.description

    def test_invoicer_is_tiny(self):
        assert build_preset("invoicer_short").service.n_servers == 16

    def test_ct_has_no_stack_samples(self):
        preset = build_preset("ct_supply_short")
        assert preset.service.samples_per_interval == 0

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            build_preset("nope")

    def test_deterministic_call_graph(self):
        g1 = build_preset("invoicer_short", seed=5).service.call_graph
        g2 = build_preset("invoicer_short", seed=5).service.call_graph
        assert g1.names() == g2.names()
