"""Tests for repro.stats.correlation and repro.stats.descriptive."""

import numpy as np
import pytest

from repro.stats import correlation
from repro.stats.correlation import pearson
from repro.stats.descriptive import percentile, summarize


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self, rng):
        assert abs(pearson(rng.normal(0, 1, 5000), rng.normal(0, 1, 5000))) < 0.1

    def test_constant_returns_zero(self):
        assert pearson(np.full(10, 3.0), np.arange(10.0)) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])


def aligned_pearson(a, b):
    """The array kernel on two ``{timestamp: value}`` dicts, keys ascending."""
    return correlation.aligned_pearson(*arrays(a), *arrays(b))


def arrays(mapping):
    times = sorted(mapping)
    return np.array(times), np.array([mapping[t] for t in times])


class TestAlignedPearson:
    def test_alignment_on_shared_timestamps(self):
        a = {0.0: 1.0, 1.0: 2.0, 2.0: 3.0, 99.0: -50.0}
        b = {0.0: 2.0, 1.0: 4.0, 2.0: 6.0, 42.0: 1000.0}
        assert aligned_pearson(a, b) == pytest.approx(1.0)

    def test_insufficient_overlap(self):
        assert aligned_pearson({0.0: 1.0}, {0.0: 2.0}) == 0.0

    def test_disjoint(self):
        assert aligned_pearson({0.0: 1.0, 1.0: 2.0}, {5.0: 1.0, 6.0: 2.0}) == 0.0

    def test_five_shared_points_of_two_long_series_say_nothing(self, rng):
        """Two 300-point series sharing 5 timestamps: the 5 correlate at
        ~0.999, but they cover under half of either series."""
        a = {float(t): float(t) for t in range(300)}
        b = {float(t): 2.0 * t + rng.normal(0, 0.05) for t in range(295, 595)}
        shared = sorted(set(a) & set(b))
        assert len(shared) == 5
        assert pearson([a[t] for t in shared], [b[t] for t in shared]) > 0.99
        assert aligned_pearson(a, b) == 0.0

    def test_half_the_shorter_series_is_enough(self):
        a = {float(t): float(t) for t in range(10)}
        b = {float(t): float(t) ** 2 for t in range(5, 105)}
        assert aligned_pearson(a, b) > 0.99


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_extremes(self):
        assert percentile([1, 2, 3], 0) == 1.0
        assert percentile([1, 2, 3], 100) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummarize:
    def test_quantile_ordering(self, rng):
        summary = summarize(rng.normal(0, 1, 1000))
        assert (
            summary.minimum
            <= summary.p10
            <= summary.p50
            <= summary.p90
            <= summary.p99
            <= summary.maximum
        )

    def test_count_and_mean(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
