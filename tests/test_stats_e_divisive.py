"""The from-scratch E-divisive change-point tester."""

import numpy as np
import pytest

from repro.stats import EDivisiveResult, e_divisive_test
from repro.stats.e_divisive import _distance_matrix, _split_statistics


def step_series(n=240, change=160, shift=1.0, seed=3):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.1, n)
    values[change:] += shift
    return values


class TestBestSplit:
    def test_tiny_hand_case(self):
        # [0, 0, 1, 1]: the only admissible split at min_segment=2 is the
        # true one; E = 2*1 - 0 - 0 = 2 scaled by m*k/(m+k) = 1.
        split = e_divisive_test(np.array([0.0, 0.0, 1.0, 1.0]), n_permutations=0)
        assert split is not None
        assert split.index == 2
        assert split.statistic == pytest.approx(2.0)

    def test_too_short_returns_none(self):
        assert e_divisive_test(np.array([1.0, 2.0, 3.0]), n_permutations=0) is None
        assert e_divisive_test(np.array([]), n_permutations=0) is None

    def test_finds_step_location(self):
        values = step_series()
        split = e_divisive_test(values, n_permutations=0)
        assert split is not None
        assert abs(split.index - 160) <= 3

    def test_prefix_sums_match_bruteforce(self):
        # The O(1)-per-split prefix-sum reads must equal the brute-force
        # pairwise sums on a small series.
        rng = np.random.default_rng(9)
        values = rng.normal(0.0, 1.0, 24)
        dist = _distance_matrix(values)
        t_values, q = _split_statistics(dist, min_segment=2)
        for t, statistic in zip(t_values, q):
            a, b = values[:t], values[t:]
            m, k = len(a), len(b)
            cross = sum(abs(x - y) for x in a for y in b) / (m * k)
            within_a = (
                sum(abs(a[i] - a[j]) for i in range(m) for j in range(i + 1, m))
                / (m * (m - 1) / 2)
            )
            within_b = (
                sum(abs(b[i] - b[j]) for i in range(k) for j in range(i + 1, k))
                / (k * (k - 1) / 2)
            )
            energy = 2 * cross - within_a - within_b
            expected = (m * k / (m + k)) * energy
            assert statistic == pytest.approx(expected, rel=1e-9)


class TestPermutationTest:
    def test_clean_noise_not_significant(self):
        rng = np.random.default_rng(17)
        result = e_divisive_test(rng.normal(0.0, 1.0, 200), seed=5)
        assert result is not None
        assert not result.significant
        assert result.p_value > 0.05

    def test_step_detected_and_significant(self):
        result = e_divisive_test(step_series(), seed=5)
        assert result is not None
        assert result.significant
        assert abs(result.index - 160) <= 3
        assert result.p_value == pytest.approx(0.01)  # (1+0)/(99+1)
        assert result.magnitude == pytest.approx(1.0, abs=0.1)
        assert result.mean_after > result.mean_before

    def test_deterministic_for_seed(self):
        values = step_series()
        first = e_divisive_test(values, seed=11)
        second = e_divisive_test(values, seed=11)
        assert first == second

    def test_p_value_bounds(self):
        # p = (1 + exceeded) / (B + 1) is always within (0, 1].
        rng = np.random.default_rng(23)
        for _ in range(3):
            result = e_divisive_test(
                rng.normal(0.0, 1.0, 60), n_permutations=19, seed=1
            )
            assert result is not None
            assert 0.0 < result.p_value <= 1.0

    def test_zero_permutations_never_significant(self):
        result = e_divisive_test(step_series(), n_permutations=0)
        assert result is not None
        assert result.p_value == 1.0
        assert not result.significant

    def test_short_series_returns_none(self):
        assert e_divisive_test(np.array([1.0, 2.0, 3.0])) is None

    def test_result_is_frozen_dataclass(self):
        result = e_divisive_test(step_series(), seed=5)
        assert isinstance(result, EDivisiveResult)
        with pytest.raises(AttributeError):
            result.index = 0
