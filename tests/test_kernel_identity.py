"""Bit-identity of the scan-tail kernels against their scalar references.

The production kernels in ``repro.stats`` are array expressions; the
loops they replaced live in ``tests/_reference_kernels.py``.  Reports are
promised byte-identical, so every property here is ``==`` /
``np.array_equal`` — never ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats
from scipy.special import chdtrc, ndtr

import _reference_kernels as ref
from repro.core.change_point import ChangePointDetector
from repro.quality.gaps import QualityGate
from repro.stats.cusum import cusum_changepoint
from repro.stats.em import em_mean_split
from repro.stats.hypothesis import likelihood_ratio_test
from repro.stats.mann_kendall import mann_kendall_test
from repro.stats.sax import sax_encode
from repro.stats.stl import loess_smooth, stl_decompose


@st.composite
def series(draw, min_size=0, max_size=400):
    """Noisy, heavily tied, or constant float series."""
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["noise", "step", "ties", "constant"]))
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.normal(1e-3, 2e-5, n)
    if kind == "step":
        values = rng.normal(0.0, 1.0, n)
        values[n // 3 :] += 2.0
        return values
    if kind == "ties":
        return rng.integers(0, 4, n).astype(float)
    return np.full(n, 0.25)


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestLoess:
    @settings(max_examples=80, deadline=None)
    @given(series(), st.sampled_from([0.01, 0.3, 0.4, 1.0]), st.sampled_from([0, 1]))
    def test_loess_matches_per_point_fits(self, values, span, degree):
        assert same(loess_smooth(values, span, degree), ref.loess_smooth(values, span, degree))

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 301])
    def test_window_edges(self, n, degree):
        values = np.random.default_rng(n).normal(0, 1, n)
        for span in (1.0 / n, 2.0 / n, 1.0):  # window == 1 or 2, window == n
            span = min(span, 1.0)
            assert same(
                loess_smooth(values, span, degree), ref.loess_smooth(values, span, degree)
            )

    def test_result_is_writable_and_plan_is_not(self):
        from repro.stats.stl import _loess_plan

        smoothed = loess_smooth(np.arange(10.0), span=0.5)
        smoothed[0] = 1.0  # callers own what they get back
        assert not any(column.flags.writeable for column in _loess_plan(10, 5))
        assert _loess_plan.cache_info().maxsize <= 8

    @settings(max_examples=40, deadline=None)
    @given(series(min_size=4, max_size=300), st.data())
    def test_stl_matches(self, values, data):
        period = data.draw(st.integers(2, values.size // 2))  # incl. ragged last cycle
        result = stl_decompose(values, period)
        seasonal, trend, residual = ref.stl_decompose(values, period)
        assert same(result.seasonal, seasonal)
        assert same(result.trend, trend)
        assert same(result.residual, residual)


class TestEm:
    @settings(max_examples=150, deadline=None)
    @given(
        series(min_size=0, max_size=250),
        st.one_of(st.none(), st.integers(-5, 300)),
        st.integers(1, 4),
    )
    def test_one_sweep_is_the_whole_ascent(self, values, initial, min_segment):
        """Index *and* likelihood, from any (clipped) starting split."""
        assert em_mean_split(values, initial, min_segment) == ref.em_mean_split(
            values, initial, min_segment
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 59), st.integers(0, 59))
    def test_ties_within_the_tolerance_keep_the_proposal(self, seed, first, second):
        """Two equal steps: splits whose likelihoods differ in the last bits."""
        rng = np.random.default_rng(seed)
        block = rng.integers(0, 3, 20).astype(float)
        values = np.concatenate([block, block + 1.0, block + 2.0])
        for initial in (first, second):
            assert em_mean_split(values, initial, 2) == ref.em_mean_split(values, initial, 2)

    @settings(max_examples=100, deadline=None)
    @given(series(min_size=6, max_size=250))
    def test_detector_refinement_is_one_call(self, values):
        proposal = cusum_changepoint(values, min_segment=3)
        if proposal is None:
            assert ChangePointDetector().detect(values) is None
            return
        assert em_mean_split(values, proposal.index, 3) == ref.refine_changepoint(
            values, proposal.index, 3
        )

    def test_non_finite_likelihoods_still_move_to_the_argmax(self):
        values = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0, 8.0])
        index, loglik = em_mean_split(values, 5, 2)
        ref_index, ref_loglik = ref.em_mean_split(values, 5, 2)
        assert index == ref_index and np.isnan(loglik) and np.isnan(ref_loglik)


class TestMannKendall:
    @settings(max_examples=150, deadline=None)
    @given(series(min_size=0, max_size=300))
    def test_s_z_p_match(self, values):
        result = mann_kendall_test(values)
        assert (result.s, result.z, result.p_value) == ref.mann_kendall(values)


class TestTailProbabilities:
    GRID = np.concatenate(
        [[0.0, 1e-300, 1e-12, 1e3, 1e6], np.linspace(0.0, 40.0, 2000), np.logspace(-8, 3, 400)]
    )

    def test_normal_two_sided(self):
        for z in self.GRID:
            assert float(2.0 * ndtr(-abs(z))) == float(2.0 * sp_stats.norm.sf(abs(z)))

    def test_chi_squared_one_degree(self):
        for statistic in self.GRID:
            assert float(chdtrc(1, statistic)) == ref.chi2_sf(statistic)

    @settings(max_examples=50, deadline=None)
    @given(series(min_size=8, max_size=200), st.data())
    def test_likelihood_ratio_p_value(self, values, data):
        index = data.draw(st.integers(1, values.size - 1))
        result = likelihood_ratio_test(values, index)
        assert result.p_value == ref.chi2_sf(result.statistic)


class TestSax:
    @settings(max_examples=150, deadline=None)
    @given(
        series(min_size=0, max_size=300),
        st.one_of(st.none(), st.tuples(st.floats(-3, 3), st.floats(-3, 3))),
        st.integers(1, 52),
    )
    def test_fields_match(self, values, value_range, n_buckets):
        encoding = sax_encode(values, n_buckets, 0.03, value_range)
        string, letters, valid, edges = ref.sax_fields(values, n_buckets, 0.03, value_range)
        assert encoding.string == string
        assert encoding.letters == letters
        assert encoding.valid_letters == valid
        assert encoding.bucket_edges == edges
        assert all(type(letter) is int for letter in encoding.letters)
        assert encoding.count_outside(valid) == ref.count_outside(letters, valid)
        assert encoding.count_outside(frozenset({0, 1})) == ref.count_outside(letters, {0, 1})


class TestCadence:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 40).map(float), st.floats(0, 1e6, allow_nan=False)),
            min_size=0,
            max_size=80,
        ),
        st.sampled_from(["as drawn", "ascending", "descending"]),
    )
    def test_matches_statistics_median(self, stamps, order):
        if order != "as drawn":
            stamps = sorted(stamps, reverse=order == "descending")
        gate = QualityGate()
        expected = ref.cadence(stamps, gate.min_cadence_points)
        assert gate.cadence(np.array(stamps)) == expected
        assert gate.cadence(stamps) == expected
