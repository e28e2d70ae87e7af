"""Tests for repro.stats.em."""

import numpy as np

import _reference_kernels as ref
from repro.stats.em import em_mean_split


class TestEmMeanSplit:
    def test_finds_exact_split_clean_step(self):
        x = np.concatenate([np.zeros(60), np.ones(40)])
        index, _ = em_mean_split(x)
        assert index == 60

    def test_converges_from_bad_initial_guess(self, step_series):
        index, _ = em_mean_split(step_series, initial_index=10)
        assert abs(index - 100) <= 3

    def test_loglik_increases_with_better_split(self, step_series):
        index, ll_converged = em_mean_split(step_series, initial_index=100)
        # The likelihood read at a bad split can't beat convergence, and
        # starting there converges to the same place.
        ll_bad = ref.split_loglik(*ref.prefix_sums(step_series), 10, len(step_series))
        assert ll_converged > ll_bad
        assert em_mean_split(step_series, initial_index=10) == (index, ll_converged)

    def test_too_short_returns_none(self):
        assert em_mean_split([1.0, 2.0], min_segment=2) is None

    def test_clamps_initial_index(self, step_series):
        index, _ = em_mean_split(step_series, initial_index=100000)
        assert 0 < index < len(step_series)

    def test_deterministic(self, step_series):
        assert em_mean_split(step_series) == em_mean_split(step_series)

    def test_noise_only_still_returns_valid_split(self, flat_series):
        result = em_mean_split(flat_series)
        assert result is not None
        index, _ = result
        assert 2 <= index <= len(flat_series) - 2
