"""Tests for repro.service.shard: how a shard leaves the process.

Two serialised forms — the checkpoint blob and the snapshot a worker
process borrows — both taken under the shard's queue lock, neither
carrying a process-local handle; ``Shard.bind`` hands the handles back.
"""

import json
import pickle
import threading

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import CollectingSink
from repro.service import (
    BackpressurePolicy,
    CheckpointError,
    CheckpointManager,
    StreamingDetectionService,
)
from repro.tsdb import SeriesFrame, WindowSpec

TAGS = {"metric": "gcpu"}


def small_config():
    return DetectionConfig(
        name="test",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


class TestCheckpointUnderLiveIngest:
    """The bug: ``checkpoint()`` pickled each shard without the queue
    lock, so with producers and flushers live a blob could hold a series
    whose columns differ in length, or a queue whose counters disagree
    with its frames — silently."""

    ROUNDS = 40
    PRODUCERS = 3

    def test_checkpoint_is_never_torn(self, tmp_path):
        service = StreamingDetectionService(
            n_shards=4,
            queue_capacity=1 << 20,
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=64,
        )
        stop = threading.Event()

        def produce(producer):
            names = [f"svc.p{producer}.sub{i}.gcpu" for i in range(10)]
            tick = 0
            while not stop.is_set():
                stamps = [float(tick + row) for row in range(10)]
                for name in names:
                    service.ingest_frame(SeriesFrame(name, TAGS, stamps, stamps))
                tick += 10
                stop.wait(0.001)  # a steady trickle: the databases stay small

        producers = [
            threading.Thread(target=produce, args=(producer,), daemon=True)
            for producer in range(self.PRODUCERS)
        ]
        service.start(flush_interval=0.001)
        for thread in producers:
            thread.start()
        directory = str(tmp_path / "ckpt")
        torn = []
        try:
            for round_index in range(self.ROUNDS):
                service.checkpoint(directory)
                _meta, shards = CheckpointManager(directory).load()
                for shard_id, state in shards.items():
                    for series in state["database"]:
                        if len(series.timestamps) != len(series.values):
                            torn.append((round_index, shard_id, series.name))
                    worker = state["worker"]
                    queued = sum(len(frame) for frame in worker._queue)
                    if queued != worker.pending or (
                        worker.accepted - worker.flushed - worker.dropped_oldest
                        != worker.pending
                    ):
                        torn.append((round_index, shard_id, "queue"))
        finally:
            stop.set()
            for thread in producers:
                thread.join(timeout=10.0)
            service.close()
        assert not any(thread.is_alive() for thread in producers)
        assert service.stats().accepted > 0
        assert not torn, torn[:5]


class TestNothingProcessLocalOnBoard:
    """No serialised form of a shard carries the registry, an
    instrument, the trace store or the fault injector; whoever unpickles
    one finds ``None`` where a handle was and wires its own."""

    HANDLES = (b"MetricsRegistry", b"Histogram", b"TraceStore", b"FaultInjector")

    @pytest.fixture()
    def service(self):
        service = StreamingDetectionService(
            n_shards=2, fault_injector=FaultInjector(FaultPlan(specs=()))
        )
        service.register_monitor("gcpu", small_config(), series_filter=TAGS)
        rng = np.random.default_rng(0)
        stamps = [tick * 60.0 for tick in range(1_000)]
        for index in range(6):
            values = rng.normal(0.001, 0.00002, len(stamps))
            service.ingest_frame(SeriesFrame(f"svc.sub{index}.gcpu", TAGS, stamps, values))
        service.advance_to(60_000.0)  # two scans: histograms observed, runs traced
        assert service.metrics.histogram("scheduler.scan_seconds").count
        assert len(service.traces)
        yield service
        service.close()

    def test_no_handle_rides_a_snapshot_or_a_checkpoint_blob(self, service):
        for shard in service._shards.values():
            for blob in (shard.snapshot(), shard.checkpoint_blob()):
                assert [name for name in self.HANDLES if name in blob] == []

    def test_an_unpickled_snapshot_is_unwired_and_the_shard_stays_bound(self, service):
        for shard in service._shards.values():
            scheduler = pickle.loads(shard.snapshot())
            assert scheduler.metrics is None
            pipelines = [
                registration.detector.pipeline
                for registration in scheduler._monitors.values()
            ]
            assert pipelines
            for pipeline in pipelines:
                assert pipeline.metrics is None and pipeline.tracer is None
            # The copy came back advanced: adopting it binds every handle.
            shard.adopt(scheduler)
            assert shard.scheduler is scheduler
            assert scheduler.database is shard.database
            assert scheduler.metrics is service.metrics
            for pipeline in pipelines:
                assert pipeline.metrics is service.metrics
                assert pipeline.tracer is service.traces

    def test_restore_binds_every_holder(self, service, tmp_path):
        directory = str(tmp_path / "ckpt")
        service.checkpoint(directory)
        injector = FaultInjector(FaultPlan(specs=()))
        restored = StreamingDetectionService.restore(directory, fault_injector=injector)
        try:
            for shard in restored._shards.values():
                assert shard.worker.metrics is restored.metrics
                assert shard.worker.fault_injector is injector
                assert shard.worker.admission.metrics is restored.metrics
                assert shard.scheduler.metrics is restored.metrics
                assert shard.scheduler.database is shard.database is shard.worker.database
                for registration in shard.scheduler._monitors.values():
                    assert registration.detector.pipeline.metrics is restored.metrics
                    assert registration.detector.pipeline.tracer is restored.traces
            assert restored.stats().scans == service.stats().scans
        finally:
            restored.close()


class TestVersionTwoIsRefused:
    def test_restore_names_both_versions(self, tmp_path):
        service = StreamingDetectionService(n_shards=1)
        service.checkpoint(str(tmp_path))
        service.close()
        for name in ("manifest.json", "manifest.g1.json"):
            path = tmp_path / name
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest["version"] = 2
            path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version 2 != supported 3"):
            StreamingDetectionService.restore(str(tmp_path))


class TestSerialAdvanceUnderLiveIngest:
    """The bug: ``Shard.advance`` flushed and scanned outside the queue
    lock.  A frame lands timestamps first, values second, so a flusher's
    write during a *serial* scan let a window, or an incremental
    screen's tail, slice a value buffer past the values that exist —
    uninitialised memory, silently."""

    def test_a_producer_waits_at_the_door_while_the_scan_runs(self, monkeypatch):
        service = StreamingDetectionService(n_shards=1)
        service.register_monitor("gcpu", small_config(), series_filter=TAGS)
        scheduler = service._shards[0].scheduler
        scan = scheduler.advance_to
        landed = threading.Event()
        landed_during_scan = []

        def offer():
            service.ingest_frame(SeriesFrame("svc.late.gcpu", TAGS, [0.0], [0.001]))
            landed.set()

        def scan_with_a_producer_at_the_door(target):
            threading.Thread(target=offer, daemon=True).start()
            landed_during_scan.append(landed.wait(0.2))
            return scan(target)

        monkeypatch.setattr(scheduler, "advance_to", scan_with_a_producer_at_the_door)
        service.advance_to(60_000.0)
        assert landed_during_scan == [False]
        assert landed.wait(10.0)
        assert service.stats().accepted == 1
        service.close()

    def _run(self, live):
        """Reports and TSDB contents after 11 rounds of 100 ticks, one of
        8 series stepping up at tick 700.  ``live``: flushers running, and
        a producer thread offering round r + 1 (and beyond) while round r
        is scanned."""
        sink = CollectingSink()
        service = StreamingDetectionService(
            n_shards=2, sinks=[sink], workers=1, queue_capacity=1 << 20,
            backpressure=BackpressurePolicy.BLOCK, batch_size=64,
        )
        # A full scan reads [now - window, now): what it reports cannot
        # depend on how far ahead of ``now`` the producer has run.  The
        # incremental screen folds every point that has landed, so it
        # is left out of a run whose reports must repeat.
        service.register_monitor(
            "gcpu", small_config(), series_filter=TAGS, incremental=False
        )
        values = np.random.default_rng(3).normal(0.001, 0.00002, (8, 1_100))
        values[3, 700:] += 0.0003
        offered = [threading.Event() for _ in range(11)]

        def produce():
            for round_index, done in enumerate(offered):
                for begin in range(round_index * 100, (round_index + 1) * 100, 10):
                    stamps = [tick * 60.0 for tick in range(begin, begin + 10)]
                    for index, row in enumerate(values):
                        service.ingest_frame(SeriesFrame(
                            f"svc.sub{index}.gcpu", TAGS, stamps, row[begin : begin + 10]
                        ))
                done.set()

        producer = threading.Thread(target=produce, daemon=True)
        if live:
            service.start(flush_interval=0.001)
            producer.start()
        else:
            produce()
        try:
            for round_index, done in enumerate(offered):
                assert done.wait(30.0)
                service.advance_to((round_index + 1) * 6_000.0)
        finally:
            service.close()
        stored = {
            series.name: (series.timestamps.tolist(), series.values.tolist())
            for shard_id in range(2)
            for series in service.shard_database(shard_id)
        }
        return json.dumps([r.to_dict() for r in sink.reports], sort_keys=True), stored

    def test_reports_and_tsdb_equal_the_quiescent_run(self):
        quiet_reports, quiet_stored = self._run(live=False)
        live_reports, live_stored = self._run(live=True)
        assert "svc.sub3.gcpu" in quiet_reports
        assert live_reports == quiet_reports
        assert live_stored == quiet_stored
