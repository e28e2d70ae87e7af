"""The report set does not depend on how far ingest runs ahead of the clock.

A full scan reads the window ``[now - total, now)``, and the incremental
screen that stands in for it on quiet series reads the same cut: the
samples stamped before ``now``.  So a service that is handed each
round's samples just before that round's advance, one that is handed
them 1 or 3 rounds early, and one that is handed the whole stream before
its first advance must deliver the same reports, at 1 shard and at 4.
Staleness eviction reads that cut too: a series is stale when its last
sample *before* ``now`` is more than three analysis spans old, whatever
has already landed after ``now``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, StreamingDetectionService, views
from repro.tsdb import SeriesFrame, WindowSpec

CONFIG = DetectionConfig(
    name="ahead", threshold=0.00002, rerun_interval=3_600.0,
    windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
    long_term=False,
)
TAGS = {"metric": "gcpu"}
POINTS, STEP_AT, SERIES, NOISE = 1_200, 900, 4, 0.00002
STAMPS = np.arange(POINTS) * 60.0
ROUNDS = np.arange(CONFIG.windows.total, POINTS * 60.0 + 1, CONFIG.rerun_interval)


def drive(service, series, ahead):
    """Advance through :data:`ROUNDS` with ingest ``ahead`` rounds in
    front of the clock; ``series`` maps a name to ``(stamps, values)``.
    Yields after each advance."""
    landed = -math.inf
    for index, now in enumerate(ROUNDS):
        ahead_of = index + ahead
        upto = ROUNDS[ahead_of] if ahead_of < len(ROUNDS) else math.inf
        for name, (stamps, values) in series.items():
            keep = (stamps >= landed) & (stamps < upto)
            service.ingest_frames([SeriesFrame(name, TAGS, stamps[keep], values[keep])])
        landed = upto
        service.advance_to(float(now))
        yield


def delivered(n_shards, seed, sigmas, ahead):
    """``(metric, change_time, detected_at, magnitude)`` of every report
    when ingest runs ``ahead`` rounds in front of the clock (``math.inf``:
    the whole stream lands before the first advance)."""
    values = np.random.default_rng(seed).normal(0.001, NOISE, (SERIES, POINTS))
    values[1, STEP_AT:] += sigmas * NOISE
    sink = CollectingSink()
    service = StreamingDetectionService(
        n_shards=n_shards, sinks=[sink], queue_capacity=1 << 14,
        backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor("gcpu", CONFIG, series_filter=TAGS)
    series = {f"svc.sub{row}.gcpu": (STAMPS, values[row]) for row in range(SERIES)}
    try:
        for _ in drive(service, series, ahead):
            pass
    finally:
        service.close()
    return sorted(
        (report.metric_id, report.change_time, report.detected_at, report.magnitude)
        for report in sink.reports
    )


class TestReportsDoNotDependOnIngestLead:
    @pytest.mark.parametrize("n_shards", [1, 4])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), sigmas=st.floats(1.5, 15.0))
    @example(seed=1, sigmas=2.5)
    def test_zero_one_three_or_all_rounds_ahead_deliver_the_same_reports(
        self, n_shards, seed, sigmas
    ):
        just_in_time = delivered(n_shards, seed, sigmas, 0)
        for ahead in (1, 3, math.inf):
            assert delivered(n_shards, seed, sigmas, ahead) == just_in_time


def staleness(ahead):
    """Per round, the series evicted as stale, and the eviction counts,
    when ingest runs ``ahead`` rounds in front of the clock.  One series
    falls silent for 850 points — over three analysis spans of 200 —
    and resumes before the last rounds."""
    values = np.random.default_rng(5).normal(0.001, NOISE, (2, POINTS))
    silent = (STAMPS < 250 * 60.0) | (STAMPS >= 1_100 * 60.0)
    series = {
        "svc.steady.gcpu": (STAMPS, values[0]),
        "svc.silent.gcpu": (STAMPS[silent], values[1][silent]),
    }
    service = StreamingDetectionService(
        n_shards=1, queue_capacity=1 << 14, backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor("gcpu", CONFIG, series_filter=TAGS)
    try:
        evicted = [
            views.quality(service)[1]["stale_series"] for _ in drive(service, series, ahead)
        ]
        counters = service.metrics.snapshot()["counters"]
    finally:
        service.close()
    return evicted, {
        name: count for name, count in counters.items()
        if name.startswith("pipeline.quality.stale_")
    }


class TestStalenessReadsTheCutAtNow:
    def test_a_silent_series_is_evicted_whether_ingest_runs_ahead_or_not(self):
        just_in_time = staleness(0)
        evicted, counts = just_in_time
        assert sum(rounds == ["svc.silent.gcpu"] for rounds in evicted) == 4
        assert evicted[-1] == []  # it resumed
        assert counts == {
            "pipeline.quality.stale_evictions": 1.0,
            "pipeline.quality.stale_skips": 4.0,
        }
        for ahead in (1, math.inf):
            assert staleness(ahead) == just_in_time
