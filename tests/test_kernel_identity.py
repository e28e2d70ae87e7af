"""Bit-identity of the scan-tail kernels against their references.

The production kernels in ``repro.stats`` are array expressions over
shared plans and sorted copies; the loops and per-call NumPy forms they
replaced live in ``tests/_reference_kernels.py``.  Reports are promised
byte-identical, so every property here is ``==`` / ``np.array_equal`` —
never ``approx`` (the two inequalities bound the FFT and LRT *screens*,
which decide nothing that is reported).
"""

import pickle
import sys
import threading
import warnings
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats
from scipy.special import chdtrc, ndtr

import _reference_kernels as ref
from repro.config import DetectionConfig
from repro.core.change_point import ChangePointDetector
from repro.core import change_point, went_away
from repro.core.pipeline import DetectionPipeline
from repro.core.went_away import WentAwayDetector
from repro.obs.spans import RunCounts
from repro.quality import gaps
from repro.quality.gaps import QualityGate
from repro.stats import autocorrelation, correlation, cusum, mann_kendall, stl
from repro.stats.autocorrelation import acf, detect_season_length
from repro.stats.cusum import cusum_changepoint, cusum_split_rows
from repro.stats.em import em_mean_split, em_split_rows
from repro.stats.hypothesis import (
    LRT_SCREEN_MARGIN,
    LRT_SCREEN_MAX_POINTS,
    likelihood_ratio_test,
    lrt_screen_rows,
)
from repro.stats.mann_kendall import mann_kendall_test
from repro.stats.robust import mad, sorted_median, sorted_percentile
from repro.stats.sax import sax_encode
from repro.stats.stl import LOESS_BLOCK_ROWS, loess_smooth, stl_decompose
from repro.stats.theil_sen import theil_sen
from repro.tsdb import TimeSeries, WindowSpec


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


@st.composite
def odd_series(draw, min_size=0, max_size=400):
    """:func:`series`, sometimes with a NaN or an infinity dropped in."""
    values = draw(series(min_size, max_size)).copy()
    damage = draw(st.sampled_from([None, None, np.nan, np.inf, -np.inf]))
    if damage is not None and values.size:
        values[draw(st.integers(0, values.size - 1))] = damage
    return values


@st.composite
def periodic_series(draw, min_size=0, max_size=500):
    """What season detection meets: noise, sines, steps, constants, exact
    plateaus (neighbouring lags tie to the last bit), tiled cycles — at
    any scale, including where squares underflow or overflow."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "sine", "step", "constant", "plateau", "tiled"]))
    t = np.arange(n)
    if kind == "noise":
        values = rng.normal(1e-3, 2e-5, n)
    elif kind == "sine":
        period = draw(st.integers(2, 60))
        values = np.sin(2 * np.pi * t / period) + rng.normal(0, draw(st.floats(0, 1)), n)
    elif kind == "step":
        values = rng.normal(0.0, 1.0, n)
        values[n // 3 :] += 2.0
    elif kind == "constant":
        values = np.full(n, draw(st.sampled_from([0.0, 0.25, -7.0])))
    elif kind == "plateau":
        width = draw(st.integers(1, 7))
        levels = rng.integers(0, 3, draw(st.integers(1, 4))).astype(float)
        values = np.resize(np.repeat(levels, width), n)
    else:
        values = np.resize(rng.normal(0, 1, draw(st.integers(2, 30))), n)
    return values * 10.0 ** draw(st.sampled_from([0, 0, 0, -3, 7, -160, -120, 120, 155]))


def loess_of_degree(values, span, degree):
    """:func:`loess_smooth` with :data:`repro.stats.stl.LOESS_DEGREE` patched."""
    with patch.object(stl, "LOESS_DEGREE", degree):
        return loess_smooth(values, span)


class TestLoess:
    @settings(max_examples=80, deadline=None)
    @given(series(), st.sampled_from([0.01, 0.3, 0.4, 1.0]), st.sampled_from([0, 1]))
    def test_loess_matches_per_point_fits(self, values, span, degree):
        assert same(loess_of_degree(values, span, degree), ref.loess_smooth(values, span, degree))

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 301])
    def test_window_edges(self, n, degree):
        values = np.random.default_rng(n).normal(0, 1, n)
        for span in (1.0 / n, 2.0 / n, 1.0):  # window == 1 or 2, window == n
            span = min(span, 1.0)
            assert same(
                loess_of_degree(values, span, degree), ref.loess_smooth(values, span, degree)
            )

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("span", [0.3, 0.4, 1.0])
    @pytest.mark.parametrize(
        "n",
        [LOESS_BLOCK_ROWS - 1, LOESS_BLOCK_ROWS, LOESS_BLOCK_ROWS + 1, 2 * LOESS_BLOCK_ROWS + 1,
         800, 900],  # around a block, and the end-to-end scans' window lengths
    )
    def test_block_edges_and_scan_windows(self, n, span, degree):
        values = np.random.default_rng(n).normal(0, 1, n) + np.sin(np.arange(n) / 3.8)
        assert same(loess_of_degree(values, span, degree), ref.loess_smooth(values, span, degree))

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


@st.composite
def time_grids(draw):
    """Two members' ascending, distinct sample times: one grid, disjoint
    grids, interleaved grids (every other point shared), a partial
    overlap, or an overlap of exactly half the shorter one."""
    kind = draw(st.sampled_from(["shared", "disjoint", "interleaved", "partial", "half"]))
    base = draw(st.sampled_from([0.0, 36_617.0, 1.7e9]))
    n, m = draw(st.integers(0, 80)), draw(st.integers(0, 80))
    a = np.arange(n)
    if kind == "shared":
        b = a
    elif kind == "disjoint":
        b = np.arange(m) + n + draw(st.integers(0, 5))
    elif kind == "interleaved":
        a, b = 2 * a, np.arange(m)
    elif kind == "partial":
        b = np.arange(m) + draw(st.integers(-m, n))
    else:
        # The shorter grid has an even length 2h and shares h points, the
        # least the rule admits; one point fewer is refused.
        half = draw(st.integers(1, 30))
        a = np.arange(2 * half)
        b = np.arange(max(m, 2 * half) + draw(st.integers(0, 1))) + half + draw(st.integers(0, 1))
    return base + 60.0 * a, base + 60.0 * b


@st.composite
def pearson_pairs(draw):
    """Two equal-length series, 2 to 1,200 points, each at a scale from
    1e-8 to 1e8; one side in seven is constant."""
    n = draw(st.integers(2, 1_200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        scale = 10.0 ** draw(st.floats(-8, 8))
        if draw(st.integers(0, 6)) == 0:
            pair.append(np.full(n, scale * draw(st.floats(-10, 10))))
        else:
            pair.append(scale * (rng.normal(0, 1, n) + draw(st.floats(-10, 10))))
    return pair


class TestTimeCorrelation:
    @settings(max_examples=300, deadline=None)
    @given(pearson_pairs())
    def test_pearson_centres_each_side_once(self, pair):
        got = correlation.pearson(*pair)
        assert got == ref.pearson(*pair) and type(got) is float

    @settings(max_examples=200, deadline=None)
    @given(time_grids(), st.data())
    def test_sorted_arrays_equal_the_dict_alignment(self, grids, data):
        a_times, b_times = grids
        a_values = data.draw(series(a_times.size, a_times.size))
        b_values = data.draw(series(b_times.size, b_times.size))
        expected = ref.aligned_pearson_of_arrays(a_times, a_values, b_times, b_values)
        got = correlation.aligned_pearson(a_times, a_values, b_times, b_values)
        assert got == expected and type(got) is type(expected)

    def test_an_overlap_of_half_the_shorter_series_is_scored(self):
        times = 60.0 * np.arange(20)
        values = np.arange(20.0) ** 2
        halves = times[:10], values[:10], times[5:], values[5:]
        scored = correlation.aligned_pearson(*halves)
        assert scored == ref.aligned_pearson_of_arrays(*halves) and scored > 0.9
        assert correlation.aligned_pearson(times[:10], values[:10], times[6:], values[6:]) == 0.0


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
        with patch.object(cusum, "MIN_SEGMENT", 3):
            proposal = cusum_changepoint(values)
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


@st.composite
def scan_matrix(draw, max_rows=12):
    """A ``(k, n)`` stack of analysis windows: noise, steps of every size
    around the significance edge, ramps, constants, offsets up to 1e12
    under noise down to 1e-9, one huge outlier — at any scale squares
    survive, and ``n`` from below ``2 * min_segment`` up."""
    k, n = draw(st.integers(1, max_rows)), draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((k, n))
    for i, kind in enumerate(rng.integers(0, 6, k)):
        sigma = 10.0 ** rng.uniform(-4, -1)
        x = 1.0 + sigma * rng.normal(0, 1, n)
        if kind == 1:  # a step of 0..1.5 sigma: most land near the critical value
            x[rng.integers(0, n) :] += sigma * rng.uniform(0, 1.5) * rng.choice([-1, 1])
        elif kind == 2:
            x += sigma * rng.uniform(-3, 3) * np.arange(n) / n
        elif kind == 3:
            x[:] = rng.choice([0.0, 0.25, -7.0, 1e-3])
        elif kind == 4:
            x = 10.0 ** rng.uniform(0, 12) + 10.0 ** rng.uniform(-9, 0) * rng.normal(0, 1, n)
        elif kind == 5:
            x[rng.integers(0, n)] *= 10.0 ** rng.uniform(3, 12)
        rows[i] = x * 10.0 ** rng.choice([0, 0, -3, 6, -150, -100, 100, 150])
    return rows


def reference_rows(detector, rows):
    return ref.detect_rows(detector, rows)[0]


def change_point_detector(significance_level, min_segment):
    """A detector built while ``MIN_SEGMENT`` reads ``min_segment``."""
    with patch.object(change_point, "MIN_SEGMENT", min_segment):
        return ChangePointDetector(significance_level=significance_level)


class TestFullScanRows:
    """A round's full scans as one matrix pass: the row-wise CUSUM -> EM ->
    LRT returns, row by row, what the per-series ``detect`` returned."""

    DETECTORS = st.builds(
        change_point_detector,
        significance_level=st.sampled_from([0.01, 0.01, 0.05, 1e-6, 0.5]),
        min_segment=st.sampled_from([3, 3, 1, 2, 5]),
    )

    @settings(max_examples=300, deadline=None)
    @given(scan_matrix(), DETECTORS)
    def test_rows_match_the_per_series_detector(self, rows, detector):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflowing squares, 0/0 on constants
            found, exact = detector.detect_rows(rows)
            expected = reference_rows(detector, rows)
            assert found == expected
            assert sum(c is not None for c in found) <= exact <= len(rows)
            increases, _ = detector.detect_rows(rows, increases_only=True)
            assert increases == [c if c and c.magnitude > 0 else None for c in expected]
            # The one-row views are the same kernel.
            assert detector.detect(rows[0]) == expected[0]
            assert detector.detect_increase(rows[-1]) == increases[-1]

    @settings(max_examples=150, deadline=None)
    @given(scan_matrix(), st.data())
    def test_a_row_does_not_depend_on_its_neighbours(self, rows, data):
        detector = ChangePointDetector()
        order = data.draw(st.permutations(range(len(rows))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            found, _ = detector.detect_rows(rows)
            assert detector.detect_rows(rows[order])[0] == [found[i] for i in order]
            for i in range(len(rows)):
                assert detector.detect_rows(rows[i : i + 1])[0][0] == found[i]

    @settings(max_examples=150, deadline=None)
    @given(scan_matrix(), st.integers(1, 4))
    def test_proposal_and_sweep_are_the_one_row_bits(self, rows, min_segment):
        n = rows.shape[1]
        if n < 2 * min_segment:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            centred = rows - rows.mean(axis=1)[:, None]
            proposal, curve = cusum_split_rows(centred, min_segment)
            index, loglik = em_split_rows(rows, proposal, min_segment)
            for i, x in enumerate(rows):
                split, _, _, _, one_curve = ref.cusum_changepoint(x, min_segment)
                assert proposal[i] == split and same(curve[i], one_curve)
                refined = ref.em_sweep(x, split, min_segment)
                assert (int(index[i]), float(loglik[i])) == refined or (
                    index[i] == refined[0] and np.isnan(loglik[i]) and np.isnan(refined[1])
                )

    @staticmethod
    def _edge_pair(seed, n=200):
        """Two windows one step-size apart whose exact p-values straddle
        0.01, or ``None`` when the split moves under the bisection."""
        rng = np.random.default_rng(seed)
        noise, step = rng.normal(0, 1, n), np.arange(n) >= n // 2

        def p_value(size):
            x = 5.0 + noise + size * step
            index = ref.em_sweep(x, ref.cusum_changepoint(x, 3)[0], 3)[0]
            return likelihood_ratio_test(x, index).p_value

        quiet, loud = 0.0, 3.0
        for _ in range(80):
            middle = 0.5 * (quiet + loud)
            quiet, loud = (middle, loud) if p_value(middle) >= 0.01 else (quiet, middle)
        if max(abs(p_value(quiet) - 0.01), abs(p_value(loud) - 0.01)) > 1e-12:
            return None
        return 5.0 + noise + quiet * step, 5.0 + noise + loud * step

    def test_rows_on_the_significance_edge_take_the_exact_tail(self):
        pairs = [pair for pair in map(self._edge_pair, range(12)) if pair is not None]
        assert len(pairs) >= 6
        rows = np.array([x for pair in pairs for x in pair])
        detector = ChangePointDetector()
        found, exact = detector.detect_rows(rows)
        assert found == reference_rows(detector, rows)
        assert [c is not None for c in found] == [False, True] * len(pairs)
        assert exact == len(rows)  # the screen decided none of them

    @settings(max_examples=300, deadline=None)
    @given(scan_matrix(max_rows=6), st.sampled_from([1, 3]))
    def test_screen_error_leaves_the_margin_three_decades(self, rows, min_segment):
        """Where the screen is trusted its statistic is within 1e-9 of the
        exact one, so nothing the margin clears could have been significant."""
        n = rows.shape[1]
        if n < 2 * min_segment:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mean = rows.mean(axis=1)
            centred = rows - mean[:, None]
            proposal, curve = cusum_split_rows(centred, min_segment)
            index, _ = em_split_rows(rows, proposal, min_segment)
            # Level 0.5: critical value 0.455, so most rows are cleared.
            undecided = lrt_screen_rows(centred, curve, mean, index, 0.5)
            for i in np.flatnonzero(~undecided):
                exact = likelihood_ratio_test(rows[i], int(index[i]), 0.5)
                assert not exact.significant
                assert exact.statistic < 0.455 - LRT_SCREEN_MARGIN + 1e-9 < 0.455

    def test_rows_too_long_to_bound_take_the_exact_tail(self):
        rows = np.random.default_rng(3).normal(1.0, 0.01, (2, LRT_SCREEN_MAX_POINTS + 1))
        detector = ChangePointDetector()
        assert detector.detect_rows(rows) == (reference_rows(detector, rows), 2)


class TestSortedWindow:
    """One sort per window serves its median and its percentiles."""

    @settings(max_examples=300, deadline=None)
    @given(odd_series(min_size=1, max_size=700))
    def test_median_and_percentiles_match_numpy(self, values):
        ordered = np.sort(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # inf - inf inside both lerps
            assert same(sorted_median(ordered), np.median(values))
            for q in (90, 95, 0, 50, 100, 12.5):
                assert same(sorted_percentile(ordered, q), np.percentile(values, q)), q
            assert same(mad(values), np.median(np.abs(values - np.median(values))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 20, 21, 24, 699, 700])
    def test_every_small_shape(self, n):
        """Even, odd and the one-point window (virtual index on the last point)."""
        values = np.random.default_rng(n).normal(1e-3, 2e-5, n)
        for window in (values, np.round(values, 4), np.full(n, 0.25)):
            ordered = np.sort(window)
            assert sorted_median(ordered) == np.median(window)
            assert sorted_percentile(ordered, 90) == np.percentile(window, 90)
            assert sorted_percentile(ordered, 95) == np.percentile(window, 95)

    @settings(max_examples=200, deadline=None)
    @given(odd_series(min_size=0, max_size=260), st.data())
    def test_went_away_terms_match_the_numpy_calls(self, values, data):
        """All four predicate terms, any split of any window (empty ones too)."""
        cuts = sorted(data.draw(st.tuples(*[st.integers(0, values.size)] * 2)))
        historic, analysis, extended = np.split(values, cuts)
        index = data.draw(st.integers(0, analysis.size))
        detector = WentAwayDetector()
        view = SimpleNamespace(historic=historic, analysis=analysis, extended=extended)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = detector.diagnose(view, SimpleNamespace(index=index))
            expected = ref.went_away_terms(historic, analysis, extended, index)
        assert (
            got.new_pattern, got.significant_regression, got.lasting_trend, got.gone_away
        ) == expected


@st.composite
def went_away_stack(draw, max_rows=8):
    """A block of same-shaped went-away rows ``(historic, analysis,
    extended, indices)``: noise, lasting steps, transients, ramps, values
    rounded to a few levels (ties inside and across the analysis and
    extended windows), constant history, scales 1e-150...1e150 and rows
    holding a NaN or an infinity; indices include 0 and ``analysis.size``,
    and windows run from empty up, so posts under 3 and 5 points occur."""
    nh = draw(st.sampled_from([0, 1, 3, 12, 40, 120]))
    na = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 30, 90]))
    ne = draw(st.sampled_from([0, 1, 2, 4, 10, 40]))
    k = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((k, nh + na + ne))
    for i, kind in enumerate(rng.integers(0, 8, k)):
        sigma = 10.0 ** rng.uniform(-5, 0)
        x = 1.0 + sigma * rng.normal(0, 1, rows.shape[1])
        start = nh + int(rng.integers(0, na + 1))
        if kind == 1:  # a step that lasts
            x[start:] += sigma * rng.uniform(0, 8)
        elif kind == 2:  # a transient that recovers
            x[start : start + int(rng.integers(1, 30))] += sigma * rng.uniform(2, 20)
        elif kind == 3:  # a ramp through analysis and extended
            x[nh:] += sigma * rng.uniform(-0.2, 0.5) * np.arange(na + ne)
        elif kind == 4:
            x = np.round(x, int(rng.integers(0, 3)) - int(np.log10(sigma)))
        elif kind == 5:
            x[:nh] = rng.choice([0.0, 1.0, -7.0])
        elif kind == 6:
            x *= 10.0 ** rng.choice([-150, -100, 100, 150])
        elif kind == 7 and x.size:
            x[int(rng.integers(0, x.size))] = rng.choice([np.nan, np.inf, -np.inf])
        rows[i] = x
    indices = rng.integers(0, na + 1, k)
    indices[rng.random(k) < 0.2] = 0
    indices[rng.random(k) < 0.2] = na
    return rows[:, :nh], rows[:, nh : nh + na], rows[:, nh + na :], indices


def terms(diagnosis):
    return (
        diagnosis.new_pattern,
        diagnosis.significant_regression,
        diagnosis.lasting_trend,
        diagnosis.gone_away,
    )


class TestWentAwayRows:
    """A block of candidates' went-away as one row pass: every row equals
    the per-candidate expressions, whatever its neighbours."""

    #: The module constants sampled off the paper's settings, patched on
    #: both sides (the reference reads them off the module too).
    SETTINGS = st.fixed_dictionaries(
        {
            "DEFAULT_BUCKETS": st.sampled_from([20, 20, 7, 1]),
            "TAIL_POINTS": st.sampled_from([5, 5, 1, 12]),
            "NEW_PATTERN_FRACTION": st.sampled_from([0.65, 0.65, 0.2]),
        }
    )

    @settings(max_examples=250, deadline=None)
    @given(went_away_stack(), SETTINGS, st.data())
    def test_rows_match_the_reference_in_any_order(self, stack, constants, data):
        historic, analysis, extended, indices = stack
        detector = WentAwayDetector()
        with patch.multiple(went_away, **constants), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            found = detector.diagnose_rows(historic, analysis, extended, indices)
            for i, diagnosis in enumerate(found):
                assert terms(diagnosis) == ref.went_away_terms(
                    historic[i], analysis[i], extended[i], indices[i]
                ), i
            order = data.draw(st.permutations(range(len(indices))))
            shuffled = [rows[order] for rows in stack]
            assert detector.diagnose_rows(*shuffled) == [found[i] for i in order]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(went_away_stack(max_rows=3), min_size=2, max_size=3), st.randoms())
    def test_mixed_shapes_stack_by_shape(self, stacks, shuffle):
        """Rows of several shapes in one call: each is its own stack's row."""
        detector = WentAwayDetector()
        rows = [(s, i) for s, stack in enumerate(stacks) for i in range(len(stack[3]))]
        shuffle.shuffle(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mixed = detector.diagnose_rows(
                *([stacks[s][part][i] for s, i in rows] for part in range(4))
            )
            alone = [detector.diagnose_rows(*stack) for stack in stacks]
        assert mixed == [alone[s][i] for s, i in rows]

    @staticmethod
    def _middle_pair_row(scale):
        """A rising 5-point analysis window whose 10 pair slopes split 5 / 5
        around the threshold, so the median itself must be read."""
        historic = scale * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # median 0, MAD scale
        analysis = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
        return historic, analysis, np.empty(0), 5

    @pytest.mark.parametrize("scale", [6.5, 7.0])
    def test_an_even_count_on_the_middle_takes_the_exact_slope(self, monkeypatch, scale):
        calls = []

        def counted(values, *args, **kwargs):
            calls.append(len(values))
            return theil_sen(values, *args, **kwargs)

        monkeypatch.setattr(went_away, "theil_sen", counted)
        historic, analysis, extended, index = self._middle_pair_row(scale)
        detector = WentAwayDetector()
        got = detector.diagnose_rows([historic], [analysis], [extended], [index])[0]
        assert terms(got) == ref.went_away_terms(historic, analysis, extended, index)
        assert calls == [5]
        # The threshold sits between the two middle slopes (2.75 and 10 / 3
        # over 5 points), and the median (3.04...) falls on either side of it.
        assert got.lasting_trend is (scale == 6.5)

    def test_rows_past_the_rank_and_pair_limits_take_the_exact_calls(self, monkeypatch):
        calls = {"mann_kendall_test": 0, "theil_sen": 0}

        def counted(name):
            kernel = getattr(went_away, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(went_away, name, counted(name))
        monkeypatch.setattr(went_away, "_RANKED_POINTS", 40)
        monkeypatch.setattr(went_away, "_EXACT_PAIR_LIMIT", 20)
        rng = np.random.default_rng(5)
        historic = rng.normal(1.0, 0.01, (6, 60))
        # A gentle rise: significant, but below the lasting-step level.
        after = 1.0 + rng.normal(0, 0.001, (6, 50)) + 0.0002 * np.arange(50)
        analysis, extended = after[:, :35], after[:, 35:]
        indices = np.array([0, 5, 17, 30, 35, 12])
        detector = WentAwayDetector()
        for i, diagnosis in enumerate(detector.diagnose_rows(historic, analysis, extended, indices)):
            assert terms(diagnosis) == ref.went_away_terms(
                historic[i], analysis[i], extended[i], indices[i]
            )
        assert calls["mann_kendall_test"] >= 6 and calls["theil_sen"] >= 1


class TestMannKendall:
    @settings(max_examples=150, deadline=None)
    @given(odd_series(min_size=0, max_size=300))
    def test_s_z_p_match(self, values):
        result = mann_kendall_test(values)
        assert (result.s, result.z, result.p_value) == ref.mann_kendall(values)
        assert result.trend == ref.mann_kendall_trend(values)

    @settings(max_examples=100, deadline=None)
    @given(odd_series(min_size=2, max_size=200), st.booleans())
    def test_theil_sen_matches(self, values, own_abscissa):
        """The default abscissa reads the plan's gaps; a caller's never does."""
        x = None
        if own_abscissa:  # sorted, with repeats: some pairs have no slope
            x = np.sort(np.random.default_rng(values.size).integers(0, 40, values.size))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = theil_sen(values, x)
            assert same([fit.slope, fit.intercept], ref.theil_sen(values, x))

    def test_results_hold_across_a_plan_growth(self, monkeypatch):
        """Small, large (the plan is replaced), small again (a view of the
        larger plan): each equals the reference, and no plan is writable."""
        empty = (np.zeros((0, 0), dtype=bool), np.zeros((0, 0)))
        monkeypatch.setattr(mann_kendall, "_pair_plan", empty)  # and put back afterwards
        rng = np.random.default_rng(19)
        first = mann_kendall.pair_plan(3)
        for n in (40, 41, 333, 40, 7, 334):
            values = np.round(rng.normal(0, 1, n) + 0.01 * np.arange(n), rng.integers(1, 4))
            result = mann_kendall_test(values)
            assert (result.s, result.z, result.p_value) == ref.mann_kendall(values)
            fit = theil_sen(values)
            assert (fit.slope, fit.intercept) == ref.theil_sen(values)
        upper, gaps = mann_kendall._pair_plan
        assert upper.shape == gaps.shape == (334, 334)
        assert not upper.flags.writeable and not gaps.flags.writeable
        assert first[0].shape == (3, 3) and not first[0].flags.writeable
        assert same(mann_kendall.pair_plan(5)[1], np.arange(5.0) - np.arange(5.0)[:, None])
        # Past Theil-Sen's exact-pair limit only the mask grows.
        for n in (1100, 1000):
            values = rng.normal(0, 1, n) + 0.001 * np.arange(n)
            result = mann_kendall_test(values)
            assert (result.s, result.z, result.p_value) == ref.mann_kendall(values)
        fit = theil_sen(values)
        assert (fit.slope, fit.intercept) == ref.theil_sen(values)
        assert [plan.shape[0] for plan in mann_kendall._pair_plan] == [1100, 1000]
        # (the package exports the function under the module's name)
        assert mann_kendall._GAPS_SIDE == sys.modules[theil_sen.__module__]._EXACT_PAIR_LIMIT


    def test_threads_growing_the_plan_see_whole_plans(self, monkeypatch):
        """Two services scan on two threads: each may replace the plan, none
        may read a mask from one and gaps from another."""
        empty = (np.zeros((0, 0), dtype=bool), np.zeros((0, 0)))
        monkeypatch.setattr(mann_kendall, "_pair_plan", empty)
        rng = np.random.default_rng(7)
        windows = [rng.normal(0, 1, n) + 0.02 * np.arange(n) for n in range(5, 120, 3)]
        expected = [(ref.mann_kendall(w), ref.theil_sen(w)) for w in windows]
        wrong = []

        def scan(order):
            for i in order:
                result, fit = mann_kendall_test(windows[i]), theil_sen(windows[i])
                got = ((result.s, result.z, result.p_value), (fit.slope, fit.intercept))
                if got != expected[i]:
                    wrong.append(i)

        threads = [
            threading.Thread(target=scan, args=(rng.permutation(len(windows)).tolist() * 3,))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert mann_kendall._pair_plan[0].shape == mann_kendall._pair_plan[1].shape


def season_length(values, min_period, max_period, significance):
    """:func:`detect_season_length` with ``MAX_PERIOD`` and ``SIGNIFICANCE`` patched."""
    with patch.multiple(autocorrelation, MAX_PERIOD=max_period, SIGNIFICANCE=significance):
        return detect_season_length(values, min_period)


class TestSeasonLength:
    """The FFT proposes, the lagged dot product disposes."""

    KWARGS = st.fixed_dictionaries(
        {
            "min_period": st.sampled_from([1, 2, 4]),
            "max_period": st.sampled_from([None, 3, 50, 10_000]),
            "significance": st.sampled_from([None, 0.0, 0.3, -0.2, 0.05, float("nan")]),
        }
    )

    @settings(max_examples=400, deadline=None)
    @given(periodic_series(), KWARGS)
    def test_matches_the_scan_over_every_lag(self, values, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 1.96 / sqrt(0), overflowing squares
            got = season_length(values, **kwargs)
            expected = ref.detect_season_length(values, **kwargs)
        assert got == expected and type(got) is type(expected)

    @settings(max_examples=100, deadline=None)
    @given(odd_series(min_size=0, max_size=300), KWARGS)
    def test_non_finite_input_judges_every_lag(self, values, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert season_length(values, **kwargs) == ref.detect_season_length(values, **kwargs)
            assert same(acf(values), ref.acf(values))

    @settings(max_examples=200, deadline=None)
    @given(periodic_series(min_size=3))
    def test_screen_error_leaves_the_slack_three_decades(self, values):
        x = values - values.mean()
        with np.errstate(over="ignore"):
            denom = float((x * x).sum())
        if not 1e-200 < denom < 1e200:  # where the screen is not consulted
            return
        exact = ref.acf(values)
        screen = autocorrelation._fft_correlations(x, denom, exact.size - 1)
        assert np.abs(screen - exact).max() < 1e-12 < autocorrelation._SCREEN_SLACK / 100

    def test_detected_period_is_a_python_int(self):
        t = np.arange(400)
        noise = np.random.default_rng(0).normal(0, 0.1, t.size)
        assert type(detect_season_length(np.sin(2 * np.pi * t / 24) + noise)) is int


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


def irregular_stamps(rng, step, n):
    """A timestamp column as the TSDB holds one: strictly increasing, on a
    ``step`` grid, with gaps, an off-grid (late) head and some jitter."""
    stamps = 1.7e9 + step * np.arange(n, dtype=float)
    kind = rng.integers(0, 4)
    if kind >= 1 and n:  # gaps: runs of missing points
        for _ in range(int(rng.integers(1, 6))):
            lo = int(rng.integers(0, n))
            stamps[lo : lo + int(rng.integers(1, 40))] = np.nan
    if kind >= 2 and n:  # a late head: the first points arrived off the grid
        head = int(rng.integers(1, 6))
        stamps[:head] -= step * rng.uniform(0.05, 0.95)
    if kind == 3 and n:  # jitter on a few points
        picked = rng.integers(0, n, int(rng.integers(1, 5)))
        stamps[picked] += step * rng.uniform(-0.3, 0.3, picked.size)
    return np.unique(stamps[np.isfinite(stamps)])


class TestCadence:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([60.0, 1.0, 0.25, 1e-3, 3600.0]))
    def test_irregular_columns_match_statistics_median(self, seed, step):
        """Regular grids take the common gap, gapped or jittered ones the
        median; both are the reference's number."""
        rng = np.random.default_rng(seed)
        stamps = irregular_stamps(rng, step, int(rng.integers(0, 300)))
        gate = QualityGate()
        assert gate.cadence(stamps) == ref.cadence(stamps.tolist(), gaps.MIN_CADENCE_POINTS)

    def test_a_gap_too_large_to_double_takes_the_median(self):
        """Past 2**1023 the mean of two equal gaps is inf, and so is the median."""
        gap = 1.25 * 2.0**1023
        stamps = np.array([-gap, 0.0, gap])
        with patch.object(gaps, "MIN_CADENCE_POINTS", 3), pytest.warns(
            RuntimeWarning, match="overflow"
        ):
            assert QualityGate().cadence(stamps) == ref.cadence(stamps.tolist(), 3) == np.inf

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
        expected = ref.cadence(stamps, gaps.MIN_CADENCE_POINTS)
        assert gate.cadence(np.array(stamps)) == expected
        assert gate.cadence(stamps) == expected


class TestWindowCut:
    """A window is one bisect of its four bounds and one copy, and the
    skip check reads that copy once: the same arrays as three
    ``values_between`` slices, the same skip reason as three finiteness
    passes and a second bisect."""

    SPECS = st.builds(
        WindowSpec,
        historic=st.sampled_from([930.5, 36000.0, 6000.0]),
        analysis=st.sampled_from([12000.0, 3000.0, 90.0]),
        extended=st.sampled_from([6000.0, 0.0, 120.0]),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), SPECS, st.floats(0.0, 1.0))
    def test_views_and_skip_reasons_match_the_per_window_reads(self, seed, spec, when):
        rng = np.random.default_rng(seed)
        stamps = irregular_stamps(rng, 60.0, int(rng.integers(0, 1200)))
        now = 1.7e9 + when * 1300 * 60.0
        analysis_start = now - spec.extended - spec.analysis
        if rng.random() < 0.5:  # the cadence halves part way: history and analysis differ
            pivot = rng.choice([analysis_start, 1.7e9 + rng.uniform(0, 1200) * 60.0])
            later = stamps >= pivot
            stamps = stamps[~later | (np.cumsum(later) % 2 == 0)]
        values = rng.normal(1.0, 0.01, stamps.size)
        if stamps.size and rng.random() < 0.5:  # a NaN or an infinity near a window's edge
            edge = rng.choice([now - spec.total, analysis_start, now - 600.0])
            at = int(stamps.searchsorted(edge) + rng.integers(-2, 10))
            values[min(max(at, 0), stamps.size - 1)] = rng.choice([np.nan, np.inf, -np.inf])
        series = TimeSeries("fleet.x.gcpu")
        series.ingest_columns(stamps, values)
        view = spec.view(series, now)
        bounds = (view.historic_start, view.analysis_start, view.extended_start, now)
        windows = (view.historic, view.analysis, view.extended)
        for got, (lo, hi) in zip(windows, zip(bounds, bounds[1:])):
            assert same(got, series.values_between(lo, hi))
        assert same(view.times, series.between(bounds[0], now).timestamps)
        config = DetectionConfig(name="cut", threshold=1e-4, windows=spec, long_term=False)
        for gate, coverage in ((None, 0.5), (QualityGate(), 0.5), (QualityGate(), 0.95)):
            pipeline = DetectionPipeline(config, quality_gate=gate)
            with patch.object(gaps, "MIN_COVERAGE", coverage):
                assert pipeline._window_skip_reason(view, RunCounts()) == (
                    ref.window_skip_reason(pipeline, series, view)
                )
        # A snapshot: a last-write-wins overwrite of the column leaves it be.
        kept = [np.array(window) for window in windows]
        if stamps.size:
            series.append(float(stamps[-1]), 12345.0)
        assert all(same(a, b) for a, b in zip(windows, kept))
        # Times and values ride a pickle, and nothing else does.
        clone = pickle.loads(pickle.dumps(view))
        assert same(clone.times, view.times) and same(clone.values, view.values)
        assert (clone.analysis_at, clone.extended_at) == (view.analysis_at, view.extended_at)
        assert set(vars(clone)) == {"spec", "now", "times", "values", "analysis_at", "extended_at"}
