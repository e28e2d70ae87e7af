"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.profiling.gcpu import compute_gcpu, stack_trace_overlap
from repro.profiling.stacktrace import StackTrace
from repro.som import som_cluster, som_grid_size
from repro.stats.cusum import cusum_statistic
from repro.stats.mann_kendall import mann_kendall_test
from repro.stats.robust import mad, mad_threshold
from repro.stats.sax import sax_encode
from repro.stats.stl import stl_decompose
from repro.stats.theil_sen import theil_sen
from repro.text.similarity import token_cosine_similarity
from repro.tsdb import TimeSeries

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small_series = st.lists(finite_floats, min_size=3, max_size=60)


class TestStatsProperties:
    @given(small_series)
    def test_cusum_ends_at_zero(self, values):
        curve = cusum_statistic(values)
        scale = max(1.0, float(np.max(np.abs(values))))
        assert abs(curve[-1]) <= 1e-6 * scale * len(values)

    @given(small_series)
    def test_mad_nonnegative_and_shift_invariant(self, values):
        assert mad(values) >= 0.0
        shifted = [v + 10.0 for v in values]
        assert mad(shifted) == pytest.approx(mad(values), abs=1e-6)

    @given(small_series, st.floats(min_value=0.1, max_value=5.0))
    def test_mad_threshold_scales_with_coefficient(self, values, coefficient):
        base = mad_threshold(values, 1.0)
        assert mad_threshold(values, coefficient) == pytest.approx(
            coefficient * base, rel=1e-9
        )

    @given(small_series)
    def test_mann_kendall_antisymmetric(self, values):
        assume(len(set(values)) > 1)
        forward = mann_kendall_test(values)
        reverse = mann_kendall_test(values[::-1])
        assert forward.s == -reverse.s

    @given(small_series)
    def test_sax_total_and_range(self, values):
        encoding = sax_encode(values)
        assert len(encoding.string) == len(values)
        assert all(0 <= letter < encoding.n_buckets for letter in encoding.letters)
        # Valid letters hold at least the validity threshold of points.
        counts = encoding.letter_counts()
        threshold = max(1, int(np.ceil(0.03 * len(values))))
        for letter in encoding.valid_letters:
            assert counts[letter] >= threshold

    @given(
        st.lists(finite_floats, min_size=2, max_size=40),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-10, max_value=10),
    )
    def test_theil_sen_affine_equivariance(self, values, shift, scale):
        fit = theil_sen(values)
        transformed = theil_sen([scale * v + shift for v in values])
        tolerance = max(1e-6, 1e-9 * max(abs(v) for v in values) * abs(scale))
        assert transformed.slope == pytest.approx(scale * fit.slope, abs=tolerance)

    @given(
        arrays(np.float64, st.integers(min_value=24, max_value=60),
               elements=st.floats(min_value=-100, max_value=100)),
    )
    @settings(max_examples=25, deadline=None)
    def test_stl_reconstruction_identity(self, values):
        result = stl_decompose(values, period=8)
        assert np.allclose(result.seasonal + result.trend + result.residual, values)


class TestTextProperties:
    texts = st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
        min_size=1,
        max_size=30,
    )

    @given(texts)
    def test_self_similarity_is_one(self, text):
        assume(any(c.isalnum() for c in text))
        assert token_cosine_similarity(text, text) == pytest.approx(1.0)

    @given(texts, texts)
    def test_similarity_symmetric_and_bounded(self, a, b):
        s1 = token_cosine_similarity(a, b)
        s2 = token_cosine_similarity(b, a)
        assert s1 == pytest.approx(s2)
        assert 0.0 <= s1 <= 1.0 + 1e-9


class TestGcpuProperties:
    stack_names = st.lists(
        st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5
    )
    sample_lists = st.lists(
        st.tuples(stack_names, st.floats(min_value=0.1, max_value=10.0)),
        min_size=1,
        max_size=20,
    )

    @given(sample_lists)
    def test_gcpu_in_unit_interval(self, specs):
        samples = [StackTrace.from_names(names, weight=w) for names, w in specs]
        table = compute_gcpu(samples)
        for subroutine in table.subroutines():
            assert 0.0 <= table.gcpu(subroutine) <= 1.0 + 1e-9

    @given(sample_lists)
    def test_overlap_symmetric_and_bounded(self, specs):
        samples = [StackTrace.from_names(names, weight=w) for names, w in specs]
        overlap_ab = stack_trace_overlap(samples, "a", "b")
        overlap_ba = stack_trace_overlap(samples, "b", "a")
        assert overlap_ab == pytest.approx(overlap_ba)
        assert 0.0 <= overlap_ab <= 1.0 + 1e-9

    @given(sample_lists)
    def test_root_frame_gcpu_dominates(self, specs):
        # A subroutine present in every sample has gCPU 1.
        samples = [
            StackTrace.from_names(["root"] + names, weight=w) for names, w in specs
        ]
        assert compute_gcpu(samples).gcpu("root") == pytest.approx(1.0)


class TestSomProperties:
    @given(st.integers(min_value=1, max_value=10_000))
    def test_grid_size_covers_items(self, n):
        size = som_grid_size(n)
        assert size >= 1
        assert (size + 1) ** 4 > n  # ceil(n^0.25) definition

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(min_value=1, max_value=12), st.just(3)),
            elements=st.floats(min_value=-5, max_value=5),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_cluster_partition(self, data):
        clusters = som_cluster(data)
        flattened = sorted(i for cluster in clusters for i in cluster)
        assert flattened == list(range(data.shape[0]))


class TestTsdbProperties:
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=0, max_size=30))
    def test_insert_always_sorted(self, points):
        """Point-at-a-time back-fill through the merge keeps order."""
        series = TimeSeries("s")
        for timestamp, value in points:
            series.ingest_columns(np.array([timestamp]), np.array([value]))
        timestamps = series.timestamps
        assert np.all(timestamps[:-1] <= timestamps[1:])

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        finite_floats,
        finite_floats,
    )
    def test_between_subset(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        series = TimeSeries("s")
        for i, value in enumerate(values):
            series.append(float(i), value)
        sub = series.between(lo, hi)
        assert all(lo <= t < hi for t in sub.timestamps)
