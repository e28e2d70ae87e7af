"""Tests for repro.service.shard: how a shard leaves the process.

Two serialised forms — the checkpoint blob, and the delta a worker
process replays onto the replica its fork copied — both taken under the
shard's queue lock; neither they nor the scheduler a worker sends back
carry a process-local handle: the scan side holds none, and the ingest
side keeps its counts itself.
"""

import copy
import io
import json
import pickle
import threading
import time

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.obs.spans import EventLog, TraceStore
from repro.runtime import CollectingSink, IncidentSink
from repro.service import (
    BackpressurePolicy,
    CheckpointError,
    CheckpointManager,
    StreamingDetectionService,
)
from repro.service import parallel
from repro.service.metrics import Counter, Histogram, MetricsRegistry
from repro.tsdb import SeriesFrame, WindowSpec
from repro.tsdb.windows import WindowedView

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
    lock, so with producers live — their full queues flushing into the
    TSDB under BLOCK — a blob could hold a series whose columns differ in
    length, or a queue whose counters disagree with its frames —
    silently."""

    ROUNDS = 40
    PRODUCERS = 3

    def test_checkpoint_is_never_torn(self, tmp_path):
        service = StreamingDetectionService(
            n_shards=4,
            queue_capacity=64,
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
                    service.ingest_frames([SeriesFrame(name, TAGS, stamps, stamps)])
                tick += 10
                stop.wait(0.001)  # a steady trickle: the databases stay small

        producers = [
            threading.Thread(target=produce, args=(producer,), daemon=True)
            for producer in range(self.PRODUCERS)
        ]
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
        stats = service.stats()
        assert stats.accepted > 0
        assert sum(shard.counters["blocking_flushes"] for shard in stats.shards) > 0
        assert not torn, torn[:5]


class TestRestoredLedgersAgree:
    """The bug: ``checkpoint()`` snapshots the registry before each shard
    pickles its worker under its own lock, so with a live producer the
    restored ``ingest.*`` / ``quality.*`` registry counters lagged the
    restored workers' own ints — and ``/metrics`` and ``stats()`` never
    agreed again.  Those counts now live only on their owners and what
    ``/metrics`` serves (``stats().metrics``) folds them, so there is
    nothing left to disagree."""

    def test_registry_counters_equal_the_sums_over_the_restored_owners(self, tmp_path):
        service = StreamingDetectionService(
            n_shards=4, queue_capacity=1 << 20, backpressure=BackpressurePolicy.BLOCK
        )
        stop = threading.Event()

        def produce():
            tick = 0
            while not stop.is_set():
                stamps = [float(tick + row) for row in range(4)]
                # One row in four is garbage: quality.* moves with ingest.*.
                values = [0.001, float("nan"), 0.001, 0.001]
                for index in range(16):
                    service.ingest_frames([
                        SeriesFrame(f"svc.sub{index}.gcpu", TAGS, stamps, values)
                    ])
                tick += 4
                stop.wait(0.0005)  # a steady trickle: the blobs stay small

        def disagreements(restored):
            counters = restored.stats().metrics["counters"]
            owned = [shard.counters for shard in restored.stats().shards]
            assert sum(c["accepted"] for c in owned) > 0
            assert sum(c["quality_quarantined"] for c in owned) > 0
            pairs = [
                (f"ingest.{key}", sum(c[key] for c in owned))
                for key in ("accepted", "flushed", "rejected", "dropped_oldest")
            ] + [
                (f"quality.{key}", sum(c[f"quality_{key}"] for c in owned))
                for key in ("quarantined", "repaired", "duplicates", "reordered")
            ]
            return [
                (name, counters.get(name, 0), total)
                for name, total in pairs
                if counters.get(name, 0) != total
            ]

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        torn = []
        try:
            deadline = time.monotonic() + 30.0
            while service.stats().accepted < 500 and time.monotonic() < deadline:
                time.sleep(0.001)
            # One checkpoint can land between two frames by luck; eight
            # against a producer that keeps offering do not.
            for round_index in range(8):
                directory = str(tmp_path / f"ckpt{round_index}")
                service.checkpoint(directory)
                restored = StreamingDetectionService.restore(directory)
                torn += disagreements(restored)
                restored.close()
        finally:
            stop.set()
            producer.join(timeout=10.0)
            service.close()
        assert not producer.is_alive()
        assert torn == []


class _NoHandles(pickle.Pickler):
    """Pickles like ``pickle.dumps`` but refuses anything process-local
    by *type* — a holder that nulls its handle in ``__getstate__`` passes,
    one that relies on the handle pickling to an empty shell does not."""

    FORBIDDEN = (
        MetricsRegistry, Counter, Histogram, TraceStore, EventLog,
        IncidentSink, type(threading.Lock()), type(threading.RLock()),
    )

    def reducer_override(self, obj):
        if isinstance(obj, self.FORBIDDEN):
            raise pickle.PicklingError(f"{type(obj).__name__} on board")
        return NotImplemented


def worker_answer(shard, target=None):
    """What a worker process sends home for ``shard``: an advance of a
    replica copied as a fork copies it (to ``target``, by default where
    the shard stands), pickled as its pipe pickles it."""
    with shard.forking() as state:
        replicas = {shard.shard_id: (0, *copy.deepcopy(state))}
    if target is None:
        target = shard.scheduler.now
    result = parallel._advance_shard(shard.shard_id, b"", target, replicas)
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


class TestNothingProcessLocalOnBoard:
    """No serialised form of a shard carries the registry, an
    instrument, the trace store, the event log, a sink or a lock.  The
    scan side has no attribute for one; the ingest worker holds no
    registry (its flush histogram pickles as a plain state)."""

    HANDLES = (b"MetricsRegistry", b"Histogram", b"TraceStore", b"EventLog")

    @pytest.fixture()
    def service(self):
        service = StreamingDetectionService(n_shards=2)
        service.register_monitor("gcpu", small_config(), series_filter=TAGS)
        rng = np.random.default_rng(0)
        stamps = [tick * 60.0 for tick in range(1_000)]
        for index in range(6):
            values = rng.normal(0.001, 0.00002, len(stamps))
            service.ingest_frames([SeriesFrame(f"svc.sub{index}.gcpu", TAGS, stamps, values)])
        service.advance_to(60_000.0)  # two scans: histograms observed, runs traced
        assert service.metrics.histogram("scheduler.scan_seconds").count
        assert len(service.traces)
        yield service
        service.close()

    def test_no_handle_rides_a_snapshot_or_a_checkpoint_blob(self, service):
        for shard in service._shards.values():
            for blob in (worker_answer(shard), shard.delta(), shard.checkpoint_blob()):
                assert [name for name in self.HANDLES if name in blob] == []

    def test_the_object_graphs_hold_nothing_process_local(self, service):
        """The picklability of registries, trace stores and event logs is
        gone because nothing pickled reaches one: walk what a worker's
        answer and ``checkpoint_blob()`` pickle and refuse every such object."""
        for shard in service._shards.values():
            with shard.worker.paused():
                snapshot = pickle.loads(worker_answer(shard)).state
                durable = pickle.loads(shard.checkpoint_blob())
                for graph in (
                    shard.scheduler,
                    {"database": shard.database, "worker": shard.worker,
                     "scheduler": shard.scheduler},
                    # What comes back out is as clean as what went in.
                    snapshot, durable,
                ):
                    _NoHandles(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(graph)
        # The walk does see what it is looking for, and the handles
        # themselves no longer pretend to be picklable.
        stowaway = {"scheduler": shard.scheduler, "registry": service.metrics}
        with pytest.raises(pickle.PicklingError, match="MetricsRegistry on board"):
            _NoHandles(io.BytesIO()).dump(stowaway)
        for handle in (service.metrics, service.traces, service.events):
            with pytest.raises(TypeError, match="cannot pickle"):
                pickle.dumps(handle)

    def test_an_unpickled_snapshot_is_unwired_and_the_shard_stays_bound(self, service):
        for shard in service._shards.values():
            scheduler = pickle.loads(worker_answer(shard)).state
            pipelines = [
                registration.pipeline
                for registration in scheduler._monitors.values()
            ]
            assert pipelines
            for holder in (scheduler, *pipelines):
                assert not {"metrics", "tracer", "sinks"} & set(vars(holder))
            # The copy came back advanced: adopting it re-points it at the
            # live database, and there is nothing on it to bind.
            shard.adopt(scheduler)
            assert shard.scheduler is scheduler
            assert scheduler.database is shard.database
            assert "metrics" not in vars(shard.worker)

    def test_restore_binds_every_holder(self, service, tmp_path):
        directory = str(tmp_path / "ckpt")
        service.checkpoint(directory)
        restored = StreamingDetectionService.restore(directory)
        try:
            for shard in restored._shards.values():
                for holder in (shard.worker, shard.worker.admission):
                    assert "metrics" not in vars(holder)
                assert shard.scheduler.database is shard.database is shard.worker.database
            assert restored.stats().scans == service.stats().scans
        finally:
            restored.close()


class TestAnAnswerShipsOnlyWhatTheParentReads:
    """The bug: a worker's answer carried every candidate's window
    (``PipelineResult.all_candidates``) and every pairwise-dedup group
    member as a whole regression with its window, though the parent reads
    only the reported regressions, the funnel and the ledger — over half
    of what workers sent home on the parallel benchmark."""

    def test_the_only_windows_on_board_are_the_reported_ones(self):
        service = StreamingDetectionService(
            n_shards=1, queue_capacity=1 << 16, backpressure=BackpressurePolicy.BLOCK
        )
        service.register_monitor("gcpu", small_config(), series_filter=TAGS)
        rng = np.random.default_rng(0)
        stamps = [tick * 60.0 for tick in range(1_500)]
        shared = rng.normal(0, 0.00002, len(stamps))
        for index in range(6):
            if index < 3:  # one family: three candidates, one report
                values = 0.001 + shared + rng.normal(0, 0.000002, len(stamps))
                values[1_000:] += 0.0003
            else:
                values = rng.normal(0.001, 0.00002, len(stamps))
            service.ingest_frames([SeriesFrame(f"svc.sub{index}.gcpu", TAGS, stamps, values)])
        service.advance_to(54_000.0)  # anchored before the step
        try:
            answer = worker_answer(service._shards[0], target=90_000.0)
        finally:
            service.close()
        windows = set()

        class Counting(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, WindowedView):
                    windows.add(id(obj))
                return NotImplemented

        result = pickle.loads(answer)
        Counting(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(result)
        results = [outcome.result for outcome in result.outcomes]
        reported = sum(len(one.reported) for one in results)
        assert reported == 1 and sum(one.funnel.counts["change_points"] for one in results) > 1
        assert all(one.all_candidates == [] for one in results)
        assert len(windows) == reported


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
        with pytest.raises(CheckpointError, match="version 2 != supported 13"):
            StreamingDetectionService.restore(str(tmp_path))


class TestSerialAdvanceUnderLiveIngest:
    """The bug: ``Shard.advance`` flushed and scanned outside the queue
    lock.  A frame lands timestamps first, values second, so a producer's
    caller-runs flush during a *serial* scan let a window, or an
    incremental screen's tail, slice a value buffer past the values that
    exist — uninitialised memory, silently."""

    def test_a_producer_waits_at_the_door_while_the_scan_runs(self, monkeypatch):
        service = StreamingDetectionService(n_shards=1)
        service.register_monitor("gcpu", small_config(), series_filter=TAGS)
        scheduler = service._shards[0].scheduler
        scan = scheduler.advance_to
        landed = threading.Event()
        landed_during_scan = []

        def offer():
            service.ingest_frames([SeriesFrame("svc.late.gcpu", TAGS, [0.0], [0.001])])
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
        8 series stepping up at tick 700.  ``live``: a producer thread
        offering round r + 1 (and beyond) while round r is scanned, its
        full queues (BLOCK) making it flush into the TSDB itself."""
        sink = CollectingSink()
        service = StreamingDetectionService(
            n_shards=2, sinks=[sink], workers=1, queue_capacity=64,
            backpressure=BackpressurePolicy.BLOCK, batch_size=64,
        )
        service.register_monitor("gcpu", small_config(), series_filter=TAGS)
        values = np.random.default_rng(3).normal(0.001, 0.00002, (8, 1_100))
        values[3, 700:] += 0.0003
        offered = [threading.Event() for _ in range(11)]

        def produce():
            for round_index, done in enumerate(offered):
                for begin in range(round_index * 100, (round_index + 1) * 100, 10):
                    stamps = [tick * 60.0 for tick in range(begin, begin + 10)]
                    for index, row in enumerate(values):
                        service.ingest_frames([SeriesFrame(
                            f"svc.sub{index}.gcpu", TAGS, stamps, row[begin : begin + 10]
                        )])
                done.set()

        producer = threading.Thread(target=produce, daemon=True)
        if live:
            producer.start()
        else:
            produce()
        try:
            for round_index, done in enumerate(offered):
                assert done.wait(30.0)
                service.advance_to((round_index + 1) * 6_000.0)
        finally:
            service.close()
        stats = service.stats()
        assert sum(shard.counters["blocking_flushes"] for shard in stats.shards) > 0
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
