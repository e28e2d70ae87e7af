"""Tests for repro.profiling.collector."""

import pytest

from repro.profiling import collector as collector_module
from repro.profiling.collector import FleetProfileCollector
from repro.profiling.stacktrace import Frame, StackTrace
from repro.tsdb import TimeSeriesDatabase


def make_samples():
    return [
        StackTrace.from_names(["_start", "svc::A::run", "svc::B::step"], weight=30.0),
        StackTrace.from_names(["_start", "svc::A::run"], weight=70.0),
    ]


class TestFleetProfileCollector:
    def test_ingest_writes_gcpu_series(self):
        db = TimeSeriesDatabase()
        collector = FleetProfileCollector(db, service="svc")
        written = collector.ingest(0.0, make_samples())
        assert written == 3  # _start, A::run, B::step
        series = db.get("svc.svc::A::run.gcpu")
        assert series is not None
        assert series.values[0] == pytest.approx(1.0)
        assert db.get("svc.svc::B::step.gcpu").values[0] == pytest.approx(0.3)

    def test_tags_set_for_routing(self):
        db = TimeSeriesDatabase()
        FleetProfileCollector(db, service="svc").ingest(0.0, make_samples())
        series = db.get("svc.svc::B::step.gcpu")
        assert series.tags == {
            "service": "svc",
            "subroutine": "svc::B::step",
            "metric": "gcpu",
        }

    def test_min_gcpu_cutoff(self, monkeypatch):
        monkeypatch.setattr(collector_module, "MIN_GCPU", 0.5)
        db = TimeSeriesDatabase()
        collector = FleetProfileCollector(db, service="svc")
        collector.ingest(0.0, make_samples())
        assert db.get("svc.svc::B::step.gcpu") is None  # 0.3 < 0.5
        assert db.get("svc.svc::A::run.gcpu") is not None

    def test_empty_batch_noop(self):
        db = TimeSeriesDatabase()
        collector = FleetProfileCollector(db, service="svc")
        assert collector.ingest(0.0, []) == 0
        assert len(db) == 0

    def test_sample_history_retained(self):
        db = TimeSeriesDatabase()
        collector = FleetProfileCollector(db, service="svc")
        collector.ingest(0.0, make_samples())
        collector.ingest(60.0, make_samples())
        assert len(collector.sample_history) == 4

    def test_history_bounded(self):
        db = TimeSeriesDatabase()
        collector = FleetProfileCollector(db, service="svc")
        collector._history_limit = 3
        collector.ingest(0.0, make_samples())
        collector.ingest(60.0, make_samples())
        assert len(collector.sample_history) == 3

    def test_metadata_series(self):
        db = TimeSeriesDatabase()
        collector = FleetProfileCollector(db, service="svc")
        annotated = StackTrace(
            frames=(
                Frame("_start"),
                Frame("svc::H::handle", metadata="user:enterprise"),
            ),
            weight=25.0,
        )
        plain = StackTrace.from_names(["_start", "svc::H::handle"], weight=75.0)
        collector.ingest(0.0, [annotated, plain])
        meta_series = db.get("svc.svc::H::handle@user:enterprise.gcpu")
        assert meta_series is not None
        assert meta_series.values[0] == pytest.approx(0.25)
        assert meta_series.tags["metadata"] == "user:enterprise"
