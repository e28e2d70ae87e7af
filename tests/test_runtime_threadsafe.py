"""Thread-safety regression tests for DetectionScheduler.advance_to.

The streaming service calls ``advance_to`` from whatever thread drives
detection while background flusher threads mutate the TSDB; before the
advance lock, two concurrent callers could both see the same due scan
and run it twice (duplicate incident reports) or interleave clock
updates. These tests pin the invariant: every due scan executes exactly
once no matter how many threads race the clock forward.
"""

import threading

import numpy as np

from repro.config import DetectionConfig
from repro.runtime import CollectingSink, DetectionScheduler, deliver_outcomes
from repro.tsdb import TimeSeriesDatabase, WindowSpec

from conftest import fill_series


def small_config(**overrides):
    defaults = dict(
        name="test",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )
    defaults.update(overrides)
    return DetectionConfig(**defaults)


def regression_db(seed=11):
    rng = np.random.default_rng(seed)
    db = TimeSeriesDatabase()
    values = rng.normal(0.001, 0.00002, 2_100)
    values[700:] += 0.0002
    fill_series(
        db,
        "svc.sub.gcpu",
        values,
        tags={"service": "svc", "subroutine": "sub", "metric": "gcpu"},
    )
    return db


class TestConcurrentAdvance:
    def test_each_due_scan_runs_exactly_once(self):
        db = regression_db()
        sink = CollectingSink()
        scheduler = DetectionScheduler(db)
        scheduler.register("svc", small_config(), series_filter={"service": "svc"})

        target = 120_000.0
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes_per_thread = [[] for _ in range(n_threads)]
        errors = []

        def advance(slot):
            try:
                barrier.wait()
                outcomes_per_thread[slot] = scheduler.advance_to(target)
                # Each thread delivers the outcomes it was returned.
                deliver_outcomes(outcomes_per_thread[slot], [sink])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=advance, args=(slot,)) for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # First scan at windows.total=54000, then every 6000 up to 120000.
        all_outcomes = [o for per in outcomes_per_thread for o in per]
        assert sorted(o.now for o in all_outcomes) == [
            54_000.0 + 6_000.0 * i for i in range(12)
        ]
        assert scheduler.now == target
        # The regression is reported once, not once per racing thread.
        assert len(sink.reports) == 1

    def test_staggered_targets_partition_the_scans(self):
        db = regression_db()
        scheduler = DetectionScheduler(db)
        scheduler.register("svc", small_config(), first_run=54_000.0)

        targets = [60_000.0, 90_000.0, 120_000.0]
        results = {}
        lock = threading.Lock()

        def advance(target):
            try:
                outcomes = scheduler.advance_to(target)
            except ValueError:
                # A later target won the race; "backwards" is the
                # documented answer, and no scan may have run for us.
                outcomes = []
            with lock:
                results[target] = outcomes

        threads = [threading.Thread(target=advance, args=(t,)) for t in targets]
        # Start in reverse so a later target may win the lock first; the
        # scheduler must still run each scan exactly once overall.
        for thread in reversed(threads):
            thread.start()
        for thread in threads:
            thread.join()

        scan_times = sorted(o.now for outcomes in results.values() for o in outcomes)
        assert scan_times == [54_000.0 + 6_000.0 * i for i in range(12)]
        assert scheduler.now == 120_000.0

    def test_concurrent_ingest_during_advance(self):
        """Flusher-style appends racing advance_to must not corrupt scans."""
        db = regression_db()
        scheduler = DetectionScheduler(db)
        scheduler.register("svc", small_config(), series_filter={"service": "svc"})
        stop = threading.Event()

        def append_points():
            series = db.get("svc.sub.gcpu")
            timestamp = series.end
            while not stop.is_set():
                timestamp += 60.0
                series.append(timestamp, 0.0012)

        writer = threading.Thread(target=append_points)
        writer.start()
        try:
            outcomes = scheduler.advance_to(120_000.0)
        finally:
            stop.set()
            writer.join()
        assert len(outcomes) == 12
