"""One time axis: a report's times are times its samples were stored at.

A window carries its samples' timestamps (``WindowedView.times``), and
every index -> time question reads them: a short-term change time, a
long-term one, cost shift's pre/post split and the times PairwiseDedup
and root cause align two series on.  Each unit test builds a
window whose samples sit off the uniform grid its bounds suggest — the
clock run past the data, frame heads arriving late, a series younger than
its historic window — where a time rebuilt from an index and a spacing
names a time no sample has.

Then two metamorphic properties through :class:`StreamingDetectionService`
at 1 and 4 shards: with ingest lagging the clock by 0-30 points and every
series' frame heads late, each delivered report's ``change_time`` is a
stored timestamp of its series; and adding ``k`` hours to every timestamp
and to the clock moves each report's ``change_time`` and ``detected_at``
by exactly ``k`` hours and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.cost_shift import CostShiftDetector
from repro.core.dedup_pairwise import _Member
from repro.core.long_term import LongTermDetector
from repro.core.types import MetricContext, Regression, RegressionKind, ScanContext
from repro.runtime import CollectingSink, DetectionScheduler
from repro.service import BackpressurePolicy, StreamingDetectionService
from repro.tsdb import SeriesFrame, TimeSeries, TimeSeriesDatabase, WindowSpec

WINDOWS = WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0)
CONFIG = DetectionConfig(
    name="time_axis", threshold=0.00005, rerun_interval=6_000.0, windows=WINDOWS,
    long_term=False,
)
TAGS = {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"}


def stepped(n=900, at=700, seed=5):
    values = np.random.default_rng(seed).normal(0.001, 0.00002, n)
    values[at:] += 0.0003
    return values


def short_term(view, change_index, change_time):
    """A short-term regression at ``change_index`` of ``view``'s analysis window."""
    return Regression(
        context=MetricContext(
            "svc.ns::K::B.gcpu", service="svc", metric_name="gcpu", subroutine="ns::K::B"
        ),
        kind=RegressionKind.SHORT_TERM,
        change_index=change_index,
        change_time=change_time,
        mean_before=0.001,
        mean_after=0.0012,
        window=view,
    )


class TestSeriesMapping:
    def test_keys_of_a_series_with_late_frame_heads_are_its_stored_timestamps(self):
        series = TimeSeries("svc.ns::K::B.gcpu")
        stamps = np.arange(900) * 60.0 + 17.0  # every frame head 17 s late
        series.ingest_columns(stamps, stepped())
        view = WINDOWS.view(series, now=54_000.0)
        member = _Member.of(short_term(view, 10, 36_617.0))  # what time correlation aligns
        kept = (stamps >= view.analysis_start) & (stamps < view.now)
        assert member.times.tolist() == stamps[kept].tolist()
        assert member.values.tolist() == view.analysis_and_extended.tolist()


class TestShortTermChangeTime:
    def test_a_clock_run_past_the_last_sample_names_a_stored_timestamp(self):
        db = TimeSeriesDatabase()
        series = db.create("svc.ns::K::B.gcpu", TAGS)
        series.ingest_columns(np.arange(900) * 60.0, stepped())
        now = series.end + 20 * 60.0  # the clock runs 20 points past the data
        scheduler = DetectionScheduler(db)
        scheduler.register("gcpu", CONFIG, first_run=now)
        [outcome] = scheduler.advance_to(now)
        found = outcome.result.all_candidates
        assert found
        stored = set(series.timestamps.tolist())
        for regression in found:
            assert regression.change_time in stored
        assert 42_000.0 - 120 <= found[0].change_time <= 42_000.0 + 120


class TestCostShiftSplit:
    def test_a_lagging_window_splits_at_the_change_time(self, monkeypatch):
        db = TimeSeriesDatabase()
        for subroutine in ("ns::K::A", "ns::K::B"):
            series = db.create(f"svc.{subroutine}.gcpu", dict(TAGS, subroutine=subroutine))
            series.ingest_columns(np.arange(260) * 60.0, np.full(260, 0.001))
        # The data ends at 15,540 s: the clock is 41 points past it.
        spec = WindowSpec(historic=10_000.0, analysis=5_000.0, extended=3_000.0)
        # Index 30 of the analysis window is the sample stored at 11,820 s.
        regression = short_term(
            spec.view(db.get("svc.ns::K::B.gcpu"), now=18_000.0), 30, 11_820.0
        )
        reads = []
        values_between = TimeSeries.values_between

        def spy(series, start, end):
            reads.append((start, end))
            return values_between(series, start, end)

        monkeypatch.setattr(TimeSeries, "values_between", spy)
        CostShiftDetector(db).check(regression, ScanContext())
        view = regression.window
        assert set(reads) == {
            (view.historic_start, regression.change_time), (regression.change_time, view.now)
        }


class TestLongTermChangeTime:
    def test_a_young_series_names_the_sample_at_its_split(self):
        values = np.random.default_rng(5).normal(0.001, 0.00003, 700)
        values[575:] += 0.0006
        series = TimeSeries("svc.ns::K::B.gcpu")
        series.ingest_columns(np.arange(700.0), values)
        # The windows span 900 s from -200: the series is 200 points younger.
        view = WindowSpec(historic=700, analysis=150, extended=50).view(series, now=700.0)
        regression = LongTermDetector(threshold=0.0002).detect(
            view, MetricContext("svc.ns::K::B.gcpu", subroutine="ns::K::B")
        )
        assert regression is not None and regression.features["gradual"] == 0.0
        assert regression.change_time in set(series.timestamps.tolist())
        assert abs(regression.change_time - 575.0) <= 30


# ---------------------------------------------------------------------------
# Through the service
# ---------------------------------------------------------------------------

TICKS = 1_000
SERIES = [f"svc.sub{i}.gcpu" for i in range(3)]
_LEVELS = np.random.default_rng(3).normal(0.001, 0.00002, (len(SERIES), TICKS))
_LEVELS[1, 700:] += 0.0003  # one step, at 42,000 s


def delivered(n_shards, heads, lag, shift=0.0):
    """``(reports as dicts, {series: stored timestamps})`` of the stepped
    stream: series ``i``'s samples ``heads[i]`` seconds late, each round's
    clock ``lag`` points ahead of what was ingested, everything ``shift``
    seconds later."""
    stamps = {
        name: np.arange(TICKS) * 60.0 + head + shift for name, head in zip(SERIES, heads)
    }
    sink = CollectingSink()
    service = StreamingDetectionService(
        n_shards=n_shards, sinks=[sink], queue_capacity=1 << 14,
        backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor(
        "gcpu", CONFIG, series_filter={"metric": "gcpu"}, first_run=WINDOWS.total + shift
    )
    try:
        for end in shift + np.arange(1, TICKS // 100 + 1) * CONFIG.rerun_interval:
            for row, name in enumerate(SERIES):
                keep = (stamps[name] >= end - CONFIG.rerun_interval - lag * 60.0) & (
                    stamps[name] < end - lag * 60.0
                )
                service.ingest_frames([
                    SeriesFrame(name, {"metric": "gcpu"}, stamps[name][keep], _LEVELS[row][keep])
                ])
            service.advance_to(float(end))
    finally:
        service.close()
    reports = sorted(
        (report.to_dict() for report in sink.reports),
        key=lambda report: (report["metric_id"], report["change_time"], report["detected_at"]),
    )
    return reports, stamps


HEADS = st.lists(st.integers(0, 59), min_size=len(SERIES), max_size=len(SERIES))


class TestReportTimesAreStoredTimes:
    @pytest.mark.parametrize("n_shards", [1, 4])
    @settings(max_examples=20, deadline=None)
    @given(heads=HEADS, lag=st.integers(0, 30))
    def test_every_change_time_is_a_stored_timestamp(self, n_shards, heads, lag):
        reports, stamps = delivered(n_shards, heads, lag)
        assert SERIES[1] in {report["metric_id"] for report in reports}
        for report in reports:
            assert report["change_time"] in set(stamps[report["metric_id"]].tolist())

    @pytest.mark.parametrize("n_shards", [1, 4])
    @settings(max_examples=10, deadline=None)
    @given(heads=HEADS, lag=st.integers(0, 30), hours=st.integers(1, 24 * 400))
    def test_a_shifted_origin_moves_only_the_two_times(self, n_shards, heads, lag, hours):
        shift = hours * 3600.0
        base, _ = delivered(n_shards, heads, lag)
        moved, _ = delivered(n_shards, heads, lag, shift)
        assert base and len(moved) == len(base)
        for before, after in zip(base, moved):
            for key in ("change_time", "detected_at"):
                assert after.pop(key) == before.pop(key) + shift
            assert after == before
