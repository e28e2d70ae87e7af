"""Tests for repro.runtime (scheduler and sinks)."""

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.obs.spans import TraceStore
from repro.runtime import (
    CollectingSink,
    DetectionScheduler,
    deliver_outcomes,
    publish,
)
from repro.service.metrics import MetricsRegistry
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


def regression_db(rng, service="svc", shift=0.0002):
    db = TimeSeriesDatabase()
    values = rng.normal(0.001, 0.00002, 1100)
    values[700:] += shift
    fill_series(
        db,
        f"{service}.sub.gcpu",
        values,
        tags={"service": service, "subroutine": "sub", "metric": "gcpu"},
    )
    return db


class TestDetectionScheduler:
    def test_register_and_monitors(self, rng):
        scheduler = DetectionScheduler(TimeSeriesDatabase())
        scheduler.register("a", small_config())
        scheduler.register("b", small_config())
        assert scheduler.monitors() == ["a", "b"]

    def test_duplicate_name_raises(self):
        scheduler = DetectionScheduler(TimeSeriesDatabase())
        scheduler.register("a", small_config())
        with pytest.raises(ValueError, match="already registered"):
            scheduler.register("a", small_config())

    def test_advance_runs_due_scans(self, rng):
        db = regression_db(rng)
        sink = CollectingSink()
        scheduler = DetectionScheduler(db)
        scheduler.register("svc", small_config(), series_filter={"service": "svc"})
        outcomes = scheduler.advance_to(66_000.0)
        deliver_outcomes(outcomes, [sink])
        # First run at windows.total = 54000, then 60000, 66000.
        assert [o.now for o in outcomes] == [54_000.0, 60_000.0, 66_000.0]
        assert all(o.seconds > 0.0 for o in outcomes)
        assert len(sink.reports) == 1  # SameRegressionMerger dedups re-runs
        assert sink.reports[0].metric_id == "svc.sub.gcpu"

    def test_rerun_interval_respected(self, rng):
        db = regression_db(rng)
        scheduler = DetectionScheduler(db)
        scheduler.register(
            "slow", small_config(rerun_interval=20_000.0), first_run=54_000.0
        )
        outcomes = scheduler.advance_to(80_000.0)
        assert [o.now for o in outcomes] == [54_000.0, 74_000.0]

    def test_multiple_monitors_parallel(self, rng):
        db = regression_db(rng, service="a")
        values = rng.normal(0.002, 0.00002, 1100)
        fill_series(db, "b.sub.gcpu", values, tags={"service": "b", "metric": "gcpu"})
        sink = CollectingSink()
        scheduler = DetectionScheduler(db)
        scheduler.register("mon-a", small_config(), series_filter={"service": "a"},
                           first_run=54_000.0)
        scheduler.register("mon-b", small_config(), series_filter={"service": "b"},
                           first_run=54_000.0)
        outcomes = scheduler.advance_to(54_000.0)
        deliver_outcomes(outcomes, [sink])
        # Same tick: scanned one after another, in registration order.
        assert [o.monitor for o in outcomes] == ["mon-a", "mon-b"]
        assert len(sink.reports) == 1  # only service a regressed

    def test_backwards_time_raises(self):
        scheduler = DetectionScheduler(TimeSeriesDatabase())
        scheduler.advance_to(100.0)
        with pytest.raises(ValueError, match="backwards"):
            scheduler.advance_to(50.0)

    def test_retention_applied(self, rng):
        db = regression_db(rng)
        scheduler = DetectionScheduler(db, retention=30_000.0)
        scheduler.register("svc", small_config(), first_run=54_000.0)
        scheduler.advance_to(54_000.0)
        series = db.get("svc.sub.gcpu")
        assert series.start >= 24_000.0

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            DetectionScheduler(TimeSeriesDatabase(), retention=-1.0)

    def test_no_monitors_noop(self):
        scheduler = DetectionScheduler(TimeSeriesDatabase())
        assert scheduler.advance_to(1_000_000.0) == []
        assert scheduler.now == 1_000_000.0


class TestSinks:
    def test_collecting_sink_len(self, rng):
        db = regression_db(rng)
        sink = CollectingSink()
        scheduler = DetectionScheduler(db)
        scheduler.register("svc", small_config(), first_run=54_000.0)
        deliver_outcomes(scheduler.advance_to(54_000.0), [sink])
        assert len(sink) == 1


class TestScanFailureIsolation:
    """One monitor's scan blowing up must not abort the whole batch."""

    def test_failing_monitor_does_not_starve_others(self, rng):
        db = regression_db(rng)
        scheduler = DetectionScheduler(db)
        scheduler.register("healthy", small_config(), first_run=54_000.0)
        broken = scheduler.register("broken", small_config(), first_run=54_000.0)

        def explode(database, now, context, state):
            raise RuntimeError("scan bug")

        broken.pipeline.run = explode
        outcomes = scheduler.advance_to(54_000.0)
        # The failure is in what the advance returns, not counted on the side.
        assert [(o.monitor, o.result is None) for o in outcomes] == [
            ("healthy", False), ("broken", True),
        ]
        # The failed monitor is rescheduled, not stuck at its old due time.
        assert broken.next_run > 54_000.0
        # Publishing counts it; delivering steps over it.
        registry, store, sink = MetricsRegistry(), TraceStore(), CollectingSink()
        publish(outcomes, registry, store)
        deliver_outcomes(outcomes, [sink])
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.scan_failures"] == 1.0
        assert scheduler.scans == 1  # the scheduler's own count, not the registry's
        assert "scheduler.scans" not in counters
        assert len(store) == 1 and len(sink) == 1
