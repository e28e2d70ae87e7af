"""Tests for repro.service.parallel and the service's workers>1 path.

The contract under test: for the same fleet input, parallel
multi-process execution produces *byte-identical* report sets to serial
in-thread execution (the merge barrier runs in ascending shard-id order,
matching the serial iteration), and checkpoints taken mid-stream restore
correctly under ``workers=4`` — with every derived incremental-scan
cache dropped at the trust boundary.
"""

import contextlib
import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.runtime import CollectingSink
from repro.runtime.scheduler import DetectionScheduler
from repro.service import (
    BackpressurePolicy,
    ParallelShardExecutor,
    Sample,
    StreamingDetectionService,
)
from repro.service import parallel, views
from repro.tsdb import TimeSeriesDatabase, WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0
CHANGE_TICK = 700
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]


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


def make_stream(seed, regress_index):
    rng = np.random.default_rng(seed)
    table = {}
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == regress_index:
            values[CHANGE_TICK:] += 0.0003
        table[name] = values
    samples = []
    for name in SERIES:
        samples.extend(
            Sample(name, tick * INTERVAL, float(table[name][tick]),
                   {"metric": "gcpu"})
            for tick in range(N_TICKS)
        )
    samples.sort(key=lambda s: s.timestamp)
    return samples


def make_service(sink, workers, n_shards=4, **kwargs):
    service = StreamingDetectionService(
        n_shards=n_shards,
        workers=workers,
        sinks=[sink],
        queue_capacity=512,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
        **kwargs,
    )
    service.register_monitor("gcpu", small_config(), series_filter={"metric": "gcpu"})
    return service


def stream_through(service, samples, advance_every=200):
    chunk = advance_every * len(SERIES)
    for begin in range(0, len(samples), chunk):
        batch = samples[begin : begin + chunk]
        service.ingest_many(batch)
        service.advance_to(batch[-1].timestamp + INTERVAL)


def run_stream(samples, workers, n_shards=4, advance_every=200):
    sink = CollectingSink()
    service = make_service(sink, workers, n_shards)
    stream_through(service, samples, advance_every)
    snapshot = service.stats().metrics
    service.close()
    return sink.reports, snapshot


def report_bytes(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def no_replicas(index):
    """An executor's ``replicas`` for one that never advances."""
    return contextlib.nullcontext({})


def record_results(service):
    """Every ``map_shards`` answer the service's executor gives, in order."""
    rounds = []
    original = service._executor.map_shards

    def recording(blobs, target):
        rounds.append(original(blobs, target))
        return rounds[-1]

    service._executor.map_shards = recording
    return rounds


def wrap_advance(monkeypatch, fault):
    """Have every worker call ``fault(shard_id, target)`` before each shard
    advance.  Installed before the first advance forks them, so re-forks
    inherit it too."""
    advance = parallel._advance_shard

    def faulty(shard_id, blob, target, replicas):
        fault(shard_id, target)
        return advance(shard_id, blob, target, replicas)

    monkeypatch.setattr(parallel, "_advance_shard", faulty)


def once(path):
    """True for the first process to ask: the spent budget is the file."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


class TestParallelShardExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelShardExecutor(0, no_replicas)

    def test_close_is_idempotent(self):
        executor = ParallelShardExecutor(2, no_replicas)
        executor.close()
        executor.close()

    def test_context_manager(self):
        with ParallelShardExecutor(2, no_replicas) as executor:
            assert executor.workers == 2

    def test_a_fork_that_lacks_the_shard_fails_it_once(self):
        """A refusal of what the fork should hold fails its worker once:
        a ``replicas`` that leaves a shard out must not make
        ``map_shards`` fork for ever.  Each shard comes back with no
        state, for the caller to advance."""
        with ParallelShardExecutor(2, no_replicas) as executor:
            results = executor.map_shards({0: b"", 1: b""}, target=1.0)
            assert executor.worker_pids() == []
        assert [(r.shard_id, r.state) for r in results] == [(0, None), (1, None)]

    def test_a_closed_executor_forks_nothing(self):
        """The bug: once forking is lazy, an advance after ``close()``
        would fork fresh workers (before that, it died on an
        ``IndexError``).  It is refused, and nothing is held to fork."""
        asked = []

        def replicas(index):
            asked.append(index)
            return contextlib.nullcontext({})

        executor = ParallelShardExecutor(2, replicas)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map_shards({0: b"", 1: b""}, target=1.0)
        assert asked == [] and executor.worker_pids() == []

    def test_service_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            StreamingDetectionService(n_shards=2, workers=0)


class TestSerialParallelEquivalence:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        regress_index=st.integers(min_value=0, max_value=len(SERIES) - 1),
    )
    def test_reports_byte_identical(self, seed, regress_index):
        """Property: same fleet seed -> byte-identical report sets."""
        samples = make_stream(seed, regress_index)
        serial_reports, serial_metrics = run_stream(samples, workers=1)
        parallel_reports, parallel_metrics = run_stream(samples, workers=4)
        assert report_bytes(parallel_reports) == report_bytes(serial_reports)
        # The scan schedule (and thus cache decisions) must match too.
        for key in ("pipeline.incremental.hits", "pipeline.incremental.misses"):
            assert parallel_metrics["counters"].get(key) == \
                serial_metrics["counters"].get(key)

    def test_known_regression_detected_in_both_modes(self):
        samples = make_stream(seed=7, regress_index=3)
        serial_reports, _ = run_stream(samples, workers=1)
        parallel_reports, _ = run_stream(samples, workers=4)
        assert {r.metric_id for r in serial_reports} == {"svc.sub3.gcpu"}
        assert report_bytes(parallel_reports) == report_bytes(serial_reports)

    def test_parallel_merges_worker_metrics(self):
        samples = make_stream(seed=7, regress_index=3)
        _, metrics = run_stream(samples, workers=4)
        counters = metrics["counters"]
        assert metrics["gauges"]["service.workers"] == 4.0
        assert counters["service.parallel_advances"] > 0
        # What the workers' scans measured came home on their outcomes
        # and was published by the parent.
        assert counters["ingest.flushed"] == len(SERIES) * N_TICKS
        assert metrics["histograms"]["service.shard_advance_seconds"]["count"] > 0
        assert metrics["histograms"]["scheduler.scan_seconds"]["count"] > 0


class TestConcurrentIngestDuringAdvance:
    """The nothing-is-lost contract under live streaming + workers>1.

    Regression test for the stale-database flush race: with BLOCK-policy
    caller-runs flushes active while a parallel advance is in flight,
    samples used to be flushed into the superseded pre-advance database
    and silently discarded when the advanced state landed.  Every
    accepted sample must end up in a shard TSDB, exactly once.
    """

    N_PRODUCERS = 4

    def test_no_accepted_sample_lost_with_flushers_and_block(self):
        service = StreamingDetectionService(
            n_shards=2,
            workers=2,
            queue_capacity=32,
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=8,
        )
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        stop = threading.Event()
        counts = [0] * self.N_PRODUCERS

        def produce(index):
            name = SERIES[index]
            while not stop.is_set():
                service.ingest(
                    name, counts[index] * INTERVAL, 0.001, {"metric": "gcpu"}
                )
                counts[index] += 1
                time.sleep(0.0005)  # bound the stream volume

        producers = [
            threading.Thread(target=produce, args=(index,), daemon=True)
            for index in range(self.N_PRODUCERS)
        ]
        for producer in producers:
            producer.start()
        # Parallel advances race against live producers.  Each round
        # offers more than both queues hold, so a producer flushes into
        # the TSDB itself (BLOCK) between or during the advances.
        for round_index in range(4):
            offered = sum(counts) + 4 * 32  # twice what both queues hold
            deadline = time.monotonic() + 10.0
            while sum(counts) < offered and time.monotonic() < deadline:
                time.sleep(0.001)
            service.advance_to((round_index + 1) * 10_000.0)
        stop.set()
        for producer in producers:
            producer.join(timeout=10.0)
        assert not any(producer.is_alive() for producer in producers)
        service.flush()  # drain whatever is still queued

        stats = service.stats()
        assert sum(shard.counters["blocking_flushes"] for shard in stats.shards) > 0
        total_offered = sum(counts)
        assert stats.offered == total_offered
        assert stats.accepted == total_offered  # BLOCK never sheds load
        assert stats.dropped == 0 and stats.rejected == 0
        total_points = sum(
            len(series)
            for shard_id in range(2)
            for series in service.shard_database(shard_id)
        )
        # Exactly once: nothing lost to a stale database, nothing
        # double-ingested across the swap.
        assert stats.flushed == total_offered
        assert total_points == total_offered
        service.close()


class TestSnapshotOwnership:
    """The ownership rule of a parallel advance: the parent keeps each
    shard's database and queue for life; a worker process holds a
    replica and only scheduler state comes back.  Nothing live is ever
    replaced, so there is no stale database to write into."""

    @staticmethod
    def series_shape(service):
        """``name -> (length, first timestamp)`` over every shard."""
        return {
            series.name: (len(series), series.timestamps[0])
            for shard_id in range(service.n_shards)
            for series in service.shard_database(shard_id)
        }

    def test_writes_during_an_open_advance_land_in_the_live_database(
        self, monkeypatch, tmp_path
    ):
        in_flight = tmp_path / "in-flight"

        def stall(shard_id, target):
            if once(in_flight):  # the first shard to start says so, then stalls
                time.sleep(1.5)

        wrap_advance(monkeypatch, stall)
        service = StreamingDetectionService(
            n_shards=2,
            workers=2,
            queue_capacity=4,
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=2,
        )
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        name = SERIES[0]
        shard_id = service.router.shard_for(name)
        worker = service._shards[shard_id].worker
        database = service.shard_database(shard_id)
        tags = {"metric": "gcpu"}

        advance = threading.Thread(target=service.advance_to, args=(100.0,))
        advance.start()
        # A worker is advancing, so every delta was cut: from here on
        # the advance is in flight.
        deadline = time.monotonic() + 10.0
        while not in_flight.exists():
            assert time.monotonic() < deadline, "the advance never fanned out"
            time.sleep(0.005)
        # 1. A plain offer, 2. a frame bigger than the queue (BLOCK:
        # caller-runs flushes, straight into the live database), 3. a
        # caller's flush of what is still queued.
        assert service.ingest(name, 0.0, 1.0, tags)
        assert worker.pending == 1 and len(database) == 0
        service.ingest_many(
            [Sample(name, tick * INTERVAL, 1.0, tags) for tick in range(1, 8)]
        )
        assert worker.blocking_flushes > 0
        assert len(database.get(name)) > 0, "BLOCK flushed mid-advance"
        assert service.flush() > 0
        assert worker.pending == 0
        assert advance.is_alive(), "all of that happened mid-advance"
        advance.join(timeout=30.0)
        assert not advance.is_alive()
        service.flush()

        # Same objects before and after; every point there exactly once.
        assert service.shard_database(shard_id) is database
        assert worker.database is database
        assert service._shards[shard_id].scheduler.database is database
        assert list(database.get(name).timestamps) == [
            tick * INTERVAL for tick in range(8)
        ]
        stats = service.stats()
        assert stats.offered == stats.accepted == stats.flushed == 8
        service.close()

    def test_flush_error_at_snapshot_time_behaves_as_on_the_serial_path(self, monkeypatch):
        samples = make_stream(seed=7, regress_index=3)
        reference_reports, _ = run_stream(samples, workers=2)
        assert reference_reports

        class DiskError(RuntimeError):
            pass

        write_batch = TimeSeriesDatabase.write_batch
        failures = [DiskError("the first batch write fails")]

        def failing_once(database, rows):
            if failures:
                raise failures.pop()
            return write_batch(database, rows)

        monkeypatch.setattr(TimeSeriesDatabase, "write_batch", failing_once)
        sink = CollectingSink()
        # A queue that holds a whole chunk: the only flushes are the
        # ones a delta makes, so that is where the fault fires.
        service = StreamingDetectionService(
            n_shards=4,
            workers=2,
            sinks=[sink],
            queue_capacity=4096,
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=128,
        )
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        chunk = 200 * len(SERIES)
        service.ingest_many(samples[:chunk])
        pending = [shard.worker.pending for shard in service._shards.values()]
        target = samples[chunk - 1].timestamp + INTERVAL
        with pytest.raises(DiskError):
            service.advance_to(target)
        # The batch was re-queued, nothing was scanned, no shard is left
        # suspended: the same call simply works the second time.
        assert [shard.worker.pending for shard in service._shards.values()] == pending
        assert service.clock == 0.0
        service.advance_to(target)
        assert sum(shard.worker.pending for shard in service._shards.values()) == 0
        stream_through(service, samples[chunk:])
        assert service.stats().flushed == len(samples)
        service.close()
        assert report_bytes(sink.reports) == report_bytes(reference_reports)

    def test_retention_leaves_serial_and_parallel_databases_identical(self):
        samples = make_stream(seed=7, regress_index=3)
        runs = {}
        for workers in (1, 2):
            sink = CollectingSink()
            service = make_service(sink, workers, retention=56_000.0)
            stream_through(service, samples)
            runs[workers] = (self.series_shape(service), report_bytes(sink.reports))
            assert sink.reports
            service.close()
        shape, _ = runs[2]
        # The worker trimmed its copy; the parent trimmed the original.
        assert all(first > 0.0 for _, first in shape.values())
        assert all(length < N_TICKS for length, _ in shape.values())
        assert runs[2] == runs[1]

    def test_retention_cutoff_rides_a_checkpoint(self, tmp_path):
        """The last retention cutoff is scheduler state like any other:
        a service checkpointed mid-stream under ``workers=1`` restores
        with it and carries on under ``workers=2`` to the databases and
        reports of the uninterrupted run."""
        samples = make_stream(seed=7, regress_index=3)
        split = 1_000 * len(SERIES)  # past the first scans (t=54000, 60000)

        reference_sink = CollectingSink()
        reference = make_service(reference_sink, workers=1, retention=56_000.0)
        stream_through(reference, samples)
        reference_shape = self.series_shape(reference)
        reference.close()

        before = CollectingSink()
        victim = make_service(before, workers=1, retention=56_000.0)
        stream_through(victim, samples[:split])
        cutoffs = [
            shard.scheduler.retention_cutoff for shard in victim._shards.values()
        ]
        assert all(cutoff is not None for cutoff in cutoffs)
        directory = str(tmp_path / "ckpt")
        victim.checkpoint(directory)
        victim.close()

        after = CollectingSink()
        restored = StreamingDetectionService.restore(
            directory, sinks=[after], workers=2
        )
        assert [
            shard.scheduler.retention_cutoff for shard in restored._shards.values()
        ] == cutoffs
        stream_through(restored, samples[split:])
        assert self.series_shape(restored) == reference_shape
        restored.close()
        assert report_bytes(before.reports + after.reports) == report_bytes(
            reference_sink.reports
        )

    def test_parallel_advance_keeps_column_capacity(self):
        """The columns a flush appends to are the ones it appended to
        before the advance, slack and all.  A pickled column is compact
        (zero slack), so a column that came back from a worker would
        make the next flush reallocate it."""
        service = StreamingDetectionService(n_shards=2, workers=2)
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        service.ingest_many(
            [
                Sample(name, tick * INTERVAL, 0.001, {"metric": "gcpu"})
                for name in SERIES
                for tick in range(10)
            ]
        )
        service.flush()

        def capacities():
            return {
                series.name: (series._timestamps.capacity, series._values.capacity)
                for shard_id in range(2)
                for series in service.shard_database(shard_id)
            }

        before = capacities()
        assert all(cap > 10 for caps in before.values() for cap in caps)
        service.advance_to(10 * INTERVAL)
        assert capacities() == before
        service.close()


class TestKillRestoreUnderWorkers:
    KILL_TICK = 950  # after the first report (scan at t=54000) lands

    def test_kill_mid_stream_restore_with_workers(self, tmp_path):
        """A service killed mid-stream and restored under ``workers=4``
        must deliver exactly the reports the uninterrupted run would
        have, with the warm scan caches its checkpoint blobs carry.
        """
        samples = make_stream(seed=7, regress_index=3)
        split = self.KILL_TICK * len(SERIES)

        reference_reports, _ = run_stream(samples, workers=4)

        sink_before = CollectingSink()
        victim = make_service(sink_before, workers=4)
        chunk = 200 * len(SERIES)
        for begin in range(0, split, chunk):
            batch = samples[begin : min(begin + chunk, split)]
            victim.ingest_many(batch)
            victim.advance_to(batch[-1].timestamp + INTERVAL)
        assert sink_before.reports, "first report must land before the kill"
        directory = str(tmp_path / "ckpt")
        victim.checkpoint(directory)
        victim.close()
        del victim  # the "crash"

        sink_after = CollectingSink()
        restored = StreamingDetectionService.restore(
            directory, sinks=[sink_after], workers=4
        )
        for begin in range(split, len(samples), chunk):
            batch = samples[begin : begin + chunk]
            restored.ingest_many(batch)
            restored.advance_to(batch[-1].timestamp + INTERVAL)
        restored.close()

        combined = sink_before.reports + sink_after.reports
        assert report_bytes(combined) == report_bytes(reference_reports)

class TestAdvanceFailureRecovery:
    """Crash-safe shard advances: the failure paths of map_shards.

    Regression tests for the poisoned-pool bug: a worker crash used to
    raise ``BrokenProcessPool`` out of ``advance_to`` *and* leave the
    broken pool cached, so every later advance failed too.  Now a worker
    that fails is killed, the parent advances in place every shard it had
    not answered, and the worker is forked afresh at its next round —
    and the delivered reports are byte-identical to an undisturbed run.
    """

    def test_sigkill_pool_worker_with_live_producers_loses_nothing(self):
        """SIGKILL a pool worker under workers=4 with producers running."""
        service = StreamingDetectionService(
            n_shards=4,
            workers=4,
            queue_capacity=64,
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=16,
        )
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        # Prime the pool so worker processes exist to kill.
        service.advance_to(1.0)
        stop = threading.Event()
        counts = [0] * 4

        def produce(index):
            name = SERIES[index]
            while not stop.is_set():
                service.ingest(
                    name, counts[index] * INTERVAL, 0.001, {"metric": "gcpu"}
                )
                counts[index] += 1
                time.sleep(0.0005)

        producers = [
            threading.Thread(target=produce, args=(index,), daemon=True)
            for index in range(4)
        ]
        for producer in producers:
            producer.start()
        try:
            for round_index in range(4):
                # Twice what the four queues hold: one fills, and its
                # producer flushes into the TSDB itself (BLOCK).
                offered = sum(counts) + 8 * 64
                deadline = time.monotonic() + 10.0
                while sum(counts) < offered and time.monotonic() < deadline:
                    time.sleep(0.001)
                victim_pid = service._executor.worker_pids()[0]
                os.kill(victim_pid, signal.SIGKILL)
                # The advance runs against a pool with a freshly killed
                # worker; recovery must be invisible to the caller.
                service.advance_to((round_index + 2) * 10_000.0)
        finally:
            stop.set()
            for producer in producers:
                producer.join(timeout=10.0)
        assert not any(producer.is_alive() for producer in producers)
        service.flush()

        stats = service.stats()
        # The producers' full queues made them write the TSDB themselves.
        assert sum(shard.counters["blocking_flushes"] for shard in stats.shards) > 0
        total_offered = sum(counts)
        assert stats.offered == total_offered
        assert stats.accepted == total_offered
        assert stats.dropped == 0 and stats.rejected == 0
        assert stats.flushed == total_offered
        total_points = sum(
            len(series)
            for shard_id in range(4)
            for series in service.shard_database(shard_id)
        )
        assert total_points == total_offered
        service.close()

    def test_injected_worker_crash_reports_byte_identical(self, monkeypatch, tmp_path):
        """A mid-advance worker crash must not change what gets reported."""
        samples = make_stream(seed=7, regress_index=3)
        reference_reports, _ = run_stream(samples, workers=4)

        def crash_twice(shard_id, target):
            if once(tmp_path / "first") or once(tmp_path / "second"):
                os._exit(13)

        wrap_advance(monkeypatch, crash_twice)
        sink = CollectingSink()
        service = StreamingDetectionService(
            n_shards=4,
            workers=4,
            sinks=[sink],
            queue_capacity=512,
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=128,
        )
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        chunk = 200 * len(SERIES)
        for begin in range(0, len(samples), chunk):
            batch = samples[begin : begin + chunk]
            service.ingest_many(batch)
            service.advance_to(batch[-1].timestamp + INTERVAL)
        counters = service.metrics.snapshot()["counters"]
        service.close()

        assert counters["advance.pool_recreations"] == 2.0
        assert counters["advance.fallbacks"] == 2.0  # one shard a worker
        assert "advance.retries" not in counters
        assert report_bytes(sink.reports) == report_bytes(reference_reports)

    def test_a_kill_mid_queue_hands_the_rest_to_the_parent(self, monkeypatch, tmp_path):
        """Worker 0 is sent shards 0 and 2 at once.  Killed while it scans
        shard 0, it is sent neither again: the parent advances both in the
        same round, and the worker is forked once, at the next."""
        samples = make_stream(seed=7, regress_index=2)
        reference_reports, _ = run_stream(samples, workers=1)
        ran = tmp_path / "ran"
        crash_at = 3 * 200 * INTERVAL  # the third round: deltas, not forks

        def die_in_shard_0(shard_id, target):
            with open(ran, "a") as log:
                log.write(f"{shard_id} {target}\n")
            if shard_id == 0 and target == crash_at and once(tmp_path / "crash"):
                os._exit(13)

        wrap_advance(monkeypatch, die_in_shard_0)
        sink = CollectingSink()
        service = make_service(sink, workers=2)
        rounds = record_results(service)
        seen = []  # (counters, degraded) after each round
        for begin in range(0, len(samples), 200 * len(SERIES)):
            batch = samples[begin : begin + 200 * len(SERIES)]
            service.ingest_many(batch)
            service.advance_to(batch[-1].timestamp + INTERVAL)
            seen.append((service.metrics.snapshot()["counters"], service.degraded_reasons()))
        service.close()

        counters, degraded = seen[2]
        assert [r.state is None for r in rounds[2]] == [True, False, True, False]
        assert counters["advance.fallbacks"] == 2.0
        assert counters["advance.pool_recreations"] == 1.0
        assert "advance.reseeds" not in counters
        assert degraded == {0: "in_process_fallback", 2: "in_process_fallback"}
        # The next round forks worker 0 once and adopts both its shards.
        counters, degraded = seen[3]
        assert all(r.state is not None for r in rounds[3])
        assert counters["advance.reseeds"] == 1.0
        assert counters["advance.fallbacks"] == 2.0
        assert degraded == {}
        assert not any("advance.retries" in each for each, _ in seen)
        scanned = [line.split() for line in ran.read_text().splitlines()]
        # Shard 2 was sent to the dead worker but never scanned by one.
        assert sorted(int(s) for s, target in scanned if float(target) == crash_at) == [0, 1, 3]
        assert report_bytes(sink.reports) == report_bytes(reference_reports)

    def test_hang_past_deadline_retries_and_recovers(self, monkeypatch, tmp_path):
        """A hung worker trips the per-shard deadline and is waited on no
        longer: the round recovers with the parent advancing that shard."""
        monkeypatch.setattr(parallel, "ADVANCE_DEADLINE", 0.5)
        wrap_advance(
            monkeypatch, lambda shard_id, target: once(tmp_path / "hang") and time.sleep(5.0)
        )
        service = StreamingDetectionService(n_shards=2, workers=2)
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        rounds = record_results(service)
        try:
            started = time.perf_counter()
            service.advance_to(100.0)
            elapsed = time.perf_counter() - started
            (results,) = rounds
            assert [r.shard_id for r in results] == [0, 1]
            assert elapsed < 5.0, "the hung worker was abandoned, not awaited"
            assert sorted(r.state is None for r in results) == [False, True]
            counters = service.metrics.snapshot()["counters"]
            assert counters["advance.deadline_exceeded"] == 1.0
            assert counters["advance.fallbacks"] == 1.0
            assert [shard.scheduler.now for shard in service._shards.values()] == [100.0] * 2
        finally:
            service.close()

    def test_default_built_service_waits_a_finite_time(self, monkeypatch, tmp_path):
        """The bug: the advance deadline defaulted to ``None``, so a
        worker killed mid-task could park ``future.result()`` for ever.
        It is a finite module constant now, and it is the one the hang
        recovery reads: shortened (nobody waits 60 s in a test), a
        stalled worker trips it and the parent advances its shard."""
        samples = make_stream(seed=7, regress_index=3)
        reference_reports, _ = run_stream(samples, workers=1, n_shards=2)
        assert parallel.ADVANCE_DEADLINE < float("inf")
        monkeypatch.setattr(parallel, "ADVANCE_DEADLINE", 0.5)
        wrap_advance(
            monkeypatch, lambda shard_id, target: once(tmp_path / "hang") and time.sleep(5.0)
        )
        sink = CollectingSink()
        service = make_service(sink, workers=2, n_shards=2)
        stream_through(service, samples)
        counters = service.metrics.snapshot()["counters"]
        service.close()
        assert counters["advance.deadline_exceeded"] == 1.0
        assert counters["advance.fallbacks"] == 1.0
        assert report_bytes(sink.reports) == report_bytes(reference_reports)

    def test_persistent_crash_falls_back_in_process(self, monkeypatch):
        """A worker that dies on every advance: each round the parent
        advances its shard itself, as ``workers=1`` does, keeps no replica
        of it, and forks the worker afresh at the next."""
        wrap_advance(monkeypatch, lambda shard_id, target: shard_id == 1 and os._exit(13))
        service = StreamingDetectionService(n_shards=2, workers=2)
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        rounds = record_results(service)
        try:
            service.advance_to(100.0)
            service.advance_to(200.0)
            assert [[r.state is None for r in each] for each in rounds] == [
                [False, True]
            ] * 2
            counters = service.metrics.snapshot()["counters"]
            assert counters["advance.fallbacks"] == 2.0
            assert counters["advance.reseeds"] == 1.0
            assert service._shards[1].worker.write_log is None
            assert [shard.scheduler.now for shard in service._shards.values()] == [200.0] * 2
        finally:
            service.close()

    def test_collateral_shards_are_rerun_apart_and_outside_the_budget(self, monkeypatch):
        """One dead worker costs its own shard and no other's: with no
        retry at all, the innocent shards still come back from their
        workers — only the shard that crashes falls back."""
        wrap_advance(monkeypatch, lambda shard_id, target: shard_id == 1 and os._exit(13))
        service = StreamingDetectionService(n_shards=3, workers=3)
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        rounds = record_results(service)
        try:
            service.advance_to(100.0)
            assert [r.state is None for r in rounds[0]] == [False, True, False]
            assert service.metrics.snapshot()["counters"]["advance.fallbacks"] == 1.0
            assert [shard.scheduler.now for shard in service._shards.values()] == [100.0] * 3
        finally:
            service.close()

    def test_degraded_set_then_cleared_on_clean_advance(self, monkeypatch, tmp_path):
        wrap_advance(
            monkeypatch, lambda shard_id, target: once(tmp_path / "crash") and os._exit(13)
        )
        service = StreamingDetectionService(n_shards=2, workers=2)
        service.register_monitor(
            "gcpu", small_config(), series_filter={"metric": "gcpu"}
        )
        service.advance_to(10_000.0)  # crash fires -> fallback -> degraded
        degraded = service.degraded_reasons()
        assert list(degraded.values()) == ["in_process_fallback"]
        assert views.healthz(service)[1]["status"] == "degraded"
        service.advance_to(20_000.0)  # budget spent -> clean advance
        assert service.degraded_reasons() == {}
        assert views.healthz(service)[1]["status"] == "ok"
        transitions = [e.kind for e in service.events.events()]
        assert "degraded" in transitions and "recovered" in transitions
        service.close()

    def test_deterministic_error_still_propagates(self, monkeypatch):
        """A genuine bug (not a crash) must fail the advance, loudly:
        in the workers, and then in the parent that advances their shards."""

        def bug(scheduler, target):
            raise ZeroDivisionError("a bug, not a crash")

        monkeypatch.setattr(DetectionScheduler, "advance_to", bug)  # before the forks
        service = StreamingDetectionService(n_shards=2, workers=2)
        try:
            with pytest.raises(ZeroDivisionError, match="a bug"):
                service.advance_to(1.0)
            counters = service.metrics.snapshot()["counters"]
            assert counters["advance.fallbacks"] == 2.0
            assert "advance.retries" not in counters
        finally:
            service.close()


class TestKillRestoreUnderWorkersCaches:
    KILL_TICK = TestKillRestoreUnderWorkers.KILL_TICK

    def test_restore_keeps_checkpoint_anchors(self, tmp_path):
        samples = make_stream(seed=7, regress_index=3)
        split = self.KILL_TICK * len(SERIES)
        service = make_service(CollectingSink(), workers=1)
        chunk = 200 * len(SERIES)
        for begin in range(0, split, chunk):
            batch = samples[begin : min(begin + chunk, split)]
            service.ingest_many(batch)
            service.advance_to(batch[-1].timestamp + INTERVAL)

        def anchors(svc):
            """``(shard, monitor, series) -> screen state`` of every anchor."""
            return {
                (shard_id, monitor, series.name): state
                for shard_id, shard in svc._shards.items()
                for monitor, registration in shard.scheduler._monitors.items()
                for series in svc.shard_database(shard_id)
                for state in [
                    registration.state.cache.screen_state(series.name)
                ]
                if state is not None
            }

        warm = anchors(service)
        assert warm, "the live service holds warm anchors by now"
        directory = str(tmp_path / "ckpt")
        service.checkpoint(directory)
        restored = StreamingDetectionService.restore(directory)
        assert anchors(restored) == warm
        service.close()
        restored.close()
