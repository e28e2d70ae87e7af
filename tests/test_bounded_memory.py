"""A long-running service holds a bounded slice of every series.

A scan at ``now`` reads its historic, analysis and extended windows and
nothing older, so a shard's TSDB keeps what its monitors read: the
scheduler cuts at ``now`` minus the largest registered ``windows.total``
once a span has passed since its last cut.  A series then holds one to
two spans plus one rerun interval, however long the service runs, and
what it reports is what it would report keeping every point.  The
dedup ledgers are cut at the same time: a prior that changed more than
the tolerance before the cutoff matches nothing a later window holds.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.same_regression import SameRegressionMerger
from repro.quality.gaps import QualityGate
from repro.runtime import CollectingSink, DetectionScheduler
from repro.service import Sample, StreamingDetectionService
from repro.service.service import REALERT_TOLERANCE
from repro.tsdb import TimeSeriesDatabase

import test_service_parallel as fleet
from conftest import fill_series

CONFIG = fleet.TRIMMING
#: Two spans plus one rerun interval, in points.
BOUND = (2 * CONFIG.windows.total + CONFIG.rerun_interval) / fleet.INTERVAL
ADVANCE_EVERY = 50  # ticks: 22 advances over the stream


def run(samples, n_shards, workers):
    """Stream ``samples`` through a service in rounds; its reports and the
    longest series any shard held after each advance."""
    sink = CollectingSink()
    service = fleet.make_service(sink, workers, n_shards, config=CONFIG)
    longest = []
    try:
        chunk = ADVANCE_EVERY * len(fleet.SERIES)
        for begin in range(0, len(samples), chunk):
            batch = samples[begin : begin + chunk]
            service.ingest_many(batch)
            service.advance_to(batch[-1].timestamp + fleet.INTERVAL)
            longest.append(max(
                len(series)
                for shard_id in range(n_shards)
                for series in service.shard_database(shard_id)
            ))
    finally:
        service.close()
    return fleet.report_bytes(sink.reports), longest


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_series_stay_within_two_spans_and_reports_are_unchanged(n_shards, workers):
    samples = fleet.make_stream(seed=7, regress_index=3)
    assert samples[-1].timestamp >= 3 * CONFIG.windows.total
    reports, longest = run(samples, n_shards, workers)
    assert max(longest) <= BOUND, longest
    # Patched before the first advance forks: the workers keep every point too.
    with mock.patch.object(TimeSeriesDatabase, "apply_retention", lambda db, cutoff: 0):
        kept_reports, kept_longest = run(samples, n_shards, workers)
    assert kept_longest[-1] == fleet.N_TICKS > BOUND
    assert reports == kept_reports and '"metric_id"' in reports


#: Ticks between the steps of one series' staircase, and between the
#: first steps of consecutive series.
STEP_EVERY, FIRST_STEP_APART = 400, 300
#: How far before the clock a prior can have changed and still be kept:
#: the cutoff trails the clock by at most two spans plus a rerun
#: interval, and a prior is kept within the tolerance of the cutoff.
HORIZON = 2 * CONFIG.windows.total + CONFIG.rerun_interval + REALERT_TOLERANCE


def staircases(n_ticks=3_000):
    """Every series steps up by 0.0003 every ``STEP_EVERY`` ticks, series
    ``i`` first at tick ``400 + FIRST_STEP_APART * i``."""
    rng = np.random.default_rng(11)
    ticks = np.arange(n_ticks)
    table = {}
    for index, name in enumerate(fleet.SERIES):
        first = 400 + FIRST_STEP_APART * index
        steps = np.where(ticks >= first, (ticks - first) // STEP_EVERY + 1, 0)
        table[name] = rng.normal(0.001, 0.00002, n_ticks) + 0.0003 * steps
    return [
        Sample(name, tick * fleet.INTERVAL, float(table[name][tick]), {"metric": "gcpu"})
        for tick in range(n_ticks)
        for name in fleet.SERIES
    ]


def run_ledgers(samples, workers):
    """``run`` for the dedup ledgers: the reports and the funnel, and per
    advance the clock and the change times each ledger holds — the
    monitors' same-regression priors over every shard, and the service's."""
    sink = CollectingSink()
    service = fleet.make_service(sink, workers, config=CONFIG)
    held = []
    try:
        chunk = ADVANCE_EVERY * len(fleet.SERIES)
        for begin in range(0, len(samples), chunk):
            batch = samples[begin : begin + chunk]
            service.ingest_many(batch)
            service.advance_to(batch[-1].timestamp + fleet.INTERVAL)
            seen = [
                change_time
                for shard in service._shards.values()
                for monitor in shard.scheduler._monitors.values()
                for priors in monitor.state.seen.values()
                for change_time, _ in priors
            ]
            reported = [t for priors in service._reported_ledger.values() for t in priors]
            held.append((service.clock, seen, reported))
    finally:
        service.close()
    return (fleet.report_bytes(sink.reports), service.funnel.counts), held


@pytest.mark.parametrize("workers", [1, 2])
def test_dedup_ledgers_forget_what_no_window_can_match(workers):
    """Recurring steps fill both ledgers; cut at retention they keep only
    priors within ``HORIZON`` of the clock, and the reports and the
    funnel are a run's keeping every prior."""
    samples = staircases()
    (reports, funnel), held = run_ledgers(samples, workers)
    # Patched before the first advance forks: the workers keep every prior too.
    with mock.patch.object(SameRegressionMerger, "forget_before", lambda *args: None), \
            mock.patch.object(StreamingDetectionService, "_forget_reported", lambda self: None):
        (kept_reports, kept_funnel), kept = run_ledgers(samples, workers)
    assert reports == kept_reports and reports.count('"metric_id"') >= 4
    assert funnel == kept_funnel and funnel["same_regression"] < funnel["threshold"]
    for clock, seen, reported in held:
        assert min(seen + reported, default=clock) >= clock - HORIZON, clock
    for ledger in (1, 2):  # the monitors', the service's
        longest = max(len(entry[ledger]) for entry in held)
        assert longest < len(kept[-1][ledger]), (ledger, longest)
        assert min(kept[-1][ledger]) < held[-1][0] - HORIZON


@pytest.mark.parametrize("workers", [1, 2])
def test_a_late_monitor_scans_from_the_clock_on(workers):
    """A monitor registered mid-stream is owed no scans from before it
    existed: its first runs at the clock, over what retention kept, and
    none runs in the past."""
    samples = fleet.make_stream(seed=7, regress_index=3)
    half = len(samples) // 2
    service = fleet.make_service(CollectingSink(), workers, config=CONFIG)
    try:
        service.ingest_many(samples[:half])
        service.advance_to(samples[half - 1].timestamp + fleet.INTERVAL)
        assert service.clock == 33_000.0 > CONFIG.windows.total
        late = fleet.small_config(name="late", rerun_interval=6_000.0, windows=CONFIG.windows)
        service.register_monitor("late", late, series_filter={"metric": "gcpu"})
        service.traces.clear()
        service.ingest_many(samples[half:])
        service.advance_to(samples[-1].timestamp + fleet.INTERVAL)
        scans = [run.now for run in service.traces.runs() if run.monitor == "late"]
    finally:
        service.close()
    due = [33_000.0 + 6_000.0 * k for k in range(6)]  # up to 66,000 s
    assert sorted(scans) == sorted(due * 4)  # each once on each of the 4 shards


def test_a_dead_series_trimmed_to_nothing_stays_evicted():
    """A series that stopped reporting is evicted as stale; once retention
    has dropped its last point it is still stale, not a scan of nothing."""
    db = TimeSeriesDatabase()
    fill_series(db, "live.gcpu", np.full(1_100, 0.001), tags={"metric": "gcpu"})
    fill_series(db, "dead.gcpu", np.full(200, 0.001), tags={"metric": "gcpu"})  # to 12,000 s
    scheduler = DetectionScheduler(db)
    scheduler.register("gcpu", CONFIG, quality_gate=QualityGate())
    outcomes = scheduler.advance_to(66_000.0)
    assert len(db.get("dead.gcpu")) == 0 and scheduler.retention_cutoff == 42_000.0
    for outcome in outcomes[-3:]:  # scans after the trim that emptied it
        drops = outcome.result.trace.span("change_points").drops
        assert drops.get("stale_series") == 1 and "insufficient_data" not in drops, drops
    assert scheduler.stale_series() == ["dead.gcpu"]
