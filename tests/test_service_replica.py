"""Resident shard workers: a replica is a fork plus the ordered log.

With ``workers > 1`` each worker process keeps a read replica of the
shards it hosts, copied by the fork that made it; the parent stays the
only writer and per advance ships what it wrote since the last one
(:meth:`Shard.delta`) or, when it does not trust the replica, forks that
worker afresh — no shard is pickled to build one.  The tests here hold
the protocol to its promises: workers are forked at the first parallel
advance even with a producer thread writing and a hung one is killed, a
restore ships no seed, a delta for the wrong generation is refused, its
shards advanced by the parent and the worker re-forked, a parent-side scheduler change reaches the
replica, the log never outgrows the database, and replay off the TSDB's
fast path (backfill merges, re-sent tails, late heads, NaN bursts)
leaves the replica equal to the live database — all with reports
byte-identical to ``workers=1``.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.fleet import dirty_stream
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import parallel
from repro.service.shard import ShardDelta

import test_service_parallel as fleet
import test_service_quality as drill


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def advance_counters(service):
    counters = service.metrics.snapshot()["counters"]
    return {
        name[len("advance."):]: value
        for name, value in counters.items()
        if name.startswith("advance.")
    }


def databases(service):
    return [list(service.shard_database(i)) for i in range(service.n_shards)]


def points(database):
    return sum(len(series) for series in database)


class TestWorkerLifecycle:
    def test_workers_are_forked_at_the_first_advance(self):
        """Not in the constructor: the first parallel advance forks both
        workers, each holding its shards, while a producer thread writes
        past the queue bound (BLOCK: it flushes into the TSDB itself).
        Its series is one no monitor reads, so the reports still equal
        ``workers=1``'s."""
        samples = fleet.make_stream(seed=7, regress_index=3)
        reference, _ = fleet.run_stream(samples, workers=1)
        sink = CollectingSink()
        service = fleet.make_service(sink, workers=2)
        stop = threading.Event()
        tags = {"metric": "unmonitored"}

        def produce():
            tick = 0
            while tick < 1_024 or not stop.is_set():
                service.ingest("noise.gauge", tick * fleet.INTERVAL, 1.0, tags)
                tick += 1

        producer = threading.Thread(target=produce, daemon=True)
        chunk = 200 * len(fleet.SERIES)
        try:
            assert service._executor.worker_pids() == []
            producer.start()
            service.ingest_many(samples[:chunk])
            service.advance_to(samples[chunk - 1].timestamp + fleet.INTERVAL)
            pids = service._executor.worker_pids()
            assert len(set(pids)) == 2 and os.getpid() not in pids
            assert all(alive(pid) for pid in pids)
            assert producer.is_alive(), "the fork happened with the producer writing"
            stop.set()
            producer.join(timeout=10.0)
            assert not producer.is_alive()
            fleet.stream_through(service, samples[chunk:])
            assert service._executor.worker_pids() == pids
            stats = service.stats()
            assert sum(shard.counters["blocking_flushes"] for shard in stats.shards) > 0
        finally:
            stop.set()
            service.close()
        assert not any(alive(pid) for pid in pids)
        assert fleet.report_bytes(sink.reports) == fleet.report_bytes(reference)

    def test_a_hung_worker_is_killed_not_abandoned(self, monkeypatch):
        """The bug: a worker that blew the deadline stayed alive —
        asleep, holding its shard copy — for the life of the service.
        A worker stopped by ``SIGSTOP`` answers nothing until it is killed;
        the parent advances its shard, and the next advance forks it anew."""
        monkeypatch.setattr(parallel, "ADVANCE_DEADLINE", 0.5)
        service = fleet.make_service(CollectingSink(), workers=2, n_shards=2)
        rounds = fleet.record_results(service)
        try:
            service.advance_to(50.0)  # forks both
            before = service._executor.worker_pids()
            os.kill(before[0], signal.SIGSTOP)
            service.advance_to(100.0)
            assert [r.state is None for r in rounds[-1]] == [True, False]
            assert not alive(before[0]), "the hung worker outlived its deadline"
            assert service._executor.worker_pids() == before[1:]
            service.advance_to(150.0)
            after = service._executor.worker_pids()
            assert after[1] == before[1] and after[0] != before[0]
            assert all(alive(pid) for pid in after) and len(after) == 2
            counters = advance_counters(service)
            assert counters["deadline_exceeded"] == 1.0
        finally:
            service.close()
        assert not any(alive(pid) for pid in after)

    def test_bytes_out_counts_only_blobs_that_left(self):
        """The bug: ``advance.bytes_out`` grew by a blob's size when the
        send raised on a worker that had died idle — bytes that never
        left.  Kill an idle worker, advance both shards: the counter
        grows by the delta the surviving worker got, and by nothing for
        the dead one, whose shard the parent advances."""
        samples = fleet.make_stream(seed=7, regress_index=3)
        service = fleet.make_service(CollectingSink(), workers=2, n_shards=2)
        sent = []
        original = service._executor.map_shards

        def recording(blobs, target):
            sent.append(dict(blobs))
            return original(blobs, target)

        service._executor.map_shards = recording
        rounds = fleet.record_results(service)
        try:
            fleet.stream_through(service, samples[: 400 * len(fleet.SERIES)])
            before = advance_counters(service)
            process, _ = service._executor._procs[0]
            victim = process.pid
            os.kill(victim, signal.SIGKILL)
            process.join(timeout=5)
            service.ingest_many(samples[400 * len(fleet.SERIES) : 500 * len(fleet.SERIES)])
            service.advance_to(500 * fleet.INTERVAL)
            # Shard 0's send failed; the parent advanced it.
            assert [r.state is None for r in rounds[-1]] == [True, False]
            assert victim not in service._executor.worker_pids()
            counters = advance_counters(service)
            assert counters["pool_recreations"] == 1.0
            assert all(sent[-1].values()), "both blobs were deltas"
            assert counters["bytes_out"] - before["bytes_out"] == len(sent[-1][1])
        finally:
            service.close()

    def test_a_restore_ships_no_seed(self, tmp_path):
        """A restored ``workers=2`` service forks its workers holding the
        restored shards: its first advance sends deltas only, where a
        seed used to send every shard whole."""
        samples = fleet.make_stream(seed=7, regress_index=3)
        split = 600 * len(fleet.SERIES)
        directory = str(tmp_path / "ckpt")
        service = fleet.make_service(CollectingSink(), workers=2)
        fleet.stream_through(service, samples[:split])
        service.checkpoint(directory)
        service.close()

        def resume(workers):
            sink = CollectingSink()
            restored = StreamingDetectionService.restore(
                directory, sinks=[sink], workers=workers,
                queue_capacity=512, backpressure=BackpressurePolicy.BLOCK, batch_size=128,
            )
            return sink, restored

        reference, serial = resume(workers=1)
        sink, restored = resume(workers=2)
        sent = []
        original = restored._executor.map_shards

        def recording(blobs, target):
            sent.append(dict(blobs))
            return original(blobs, target)

        restored._executor.map_shards = recording
        batch = samples[split : split + 200 * len(fleet.SERIES)]
        try:
            before = advance_counters(restored).get("bytes_out", 0.0)
            for each in (serial, restored):
                each.ingest_many(batch)
                each.advance_to(batch[-1].timestamp + fleet.INTERVAL)
            grown = advance_counters(restored)["bytes_out"] - before
            (blobs,) = sent
            for blob in blobs.values():
                assert blob == b"" or isinstance(pickle.loads(blob), ShardDelta)
            assert grown == sum(len(blob) for blob in blobs.values())
            assert len(restored._executor.worker_pids()) == 2
        finally:
            serial.close()
            restored.close()
        assert fleet.report_bytes(sink.reports) == fleet.report_bytes(reference.reports)

    def test_workers_of_a_sigkilled_parent_exit(self):
        """The bug: every worker was forked holding the parent's end of
        its own pipe and of each earlier worker's, so with the parent
        dead no ``recv`` read EOF and the workers sat on their replicas
        for ever."""
        script = (
            "import sys, time\n"
            "from repro.service import StreamingDetectionService\n"
            "service = StreamingDetectionService(n_shards=2, workers=2)\n"
            "service.advance_to(1.0)  # the workers are forked here\n"
            "print(*service._executor.worker_pids(), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(alive(pid) for pid in pids)
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=5)

            def gone(pid):  # reparented: nobody here reaps it, so a zombie counts
                try:
                    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                        return stat.read().rpartition(")")[2].split()[0] == "Z"
                except FileNotFoundError:
                    return True

            deadline = time.monotonic() + 5.0
            while not all(map(gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(gone, pids)), "workers outlived their SIGKILLed parent"
        finally:
            parent.kill()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestGenerations:
    def test_a_delta_for_the_wrong_generation_is_refused_and_reseeded(self):
        samples = fleet.make_stream(seed=7, regress_index=3)
        reference, _ = fleet.run_stream(samples, workers=1)
        sink = CollectingSink()
        service = fleet.make_service(sink, workers=2)
        try:
            chunk = 200 * len(fleet.SERIES)
            for round_index, begin in enumerate(range(0, len(samples), chunk)):
                if round_index == 3:
                    # The parent believes in a replica state no worker holds.
                    service._shards[1].worker.write_log.generation += 1
                batch = samples[begin : begin + chunk]
                service.ingest_many(batch)
                service.advance_to(batch[-1].timestamp + fleet.INTERVAL)
                if round_index == 3:
                    # Worker 1 hosts shards 1 and 3: the parent advanced both.
                    assert service.degraded_reasons() == {
                        1: "in_process_fallback", 3: "in_process_fallback",
                    }
            counters = advance_counters(service)
            assert counters["reseeds"] == 1.0 and counters["fallbacks"] == 2.0
            assert "retries" not in counters
            assert service.degraded_reasons() == {}
            # Trusted again from the re-fork on: deltas all the way.
            assert service._shards[1].worker.write_log.generation == 2
        finally:
            service.close()
        assert fleet.report_bytes(sink.reports) == fleet.report_bytes(reference)

    def test_a_result_its_worker_outlived_is_forgotten(self):
        """Worker 1 hosts shards 1 and 3 and takes them in that order.
        Shard 3's delta is refused after shard 1's result came back: that
        result is still adopted, the parent advances shard 3, and the
        worker's replicas are forgotten with it — the next advance forks
        worker 1 once, holding both shards afresh."""
        samples = fleet.make_stream(seed=7, regress_index=3)
        reference, _ = fleet.run_stream(samples, workers=1)
        sink = CollectingSink()
        service = fleet.make_service(sink, workers=2)
        rounds = fleet.record_results(service)
        try:
            chunk = 200 * len(fleet.SERIES)
            for round_index, begin in enumerate(range(0, len(samples), chunk)):
                if round_index == 3:
                    service._shards[3].worker.write_log.generation += 1
                batch = samples[begin : begin + chunk]
                service.ingest_many(batch)
                service.advance_to(batch[-1].timestamp + fleet.INTERVAL)
                if round_index == 3:
                    assert [r.state is None for r in rounds[-1]] == [False, False, False, True]
                    assert service._shards[1].worker.write_log is not None
                    assert service._shards[3].worker.write_log is None
                    assert len(service._executor.worker_pids()) == 1
                if round_index == 4:  # as forked, then adopted once
                    assert all(r.state is not None for r in rounds[-1])
                    assert service._shards[1].worker.write_log.generation == 1
            counters = advance_counters(service)
            assert counters["reseeds"] == 1.0 and counters["fallbacks"] == 1.0
            assert "retries" not in counters and service.degraded_reasons() == {}
        finally:
            service.close()
        assert fleet.report_bytes(sink.reports) == fleet.report_bytes(reference)

    def test_the_worker_entry_point_refuses_what_it_does_not_hold(self):
        service = fleet.make_service(CollectingSink(), workers=1, n_shards=1)
        shard = service._shards[0]
        try:
            assert shard.delta() == b"", "no replica is trusted yet"
            with shard.forking() as state:
                replicas = {0: (0, *pickle.loads(pickle.dumps(state)))}  # as a fork copies it
            parallel._advance_shard(0, b"", 10.0, replicas)
            assert replicas[0][0] == 1
            with pytest.raises(parallel.ReplicaRefused):  # "as forked" is generation 0
                parallel._advance_shard(0, b"", 20.0, replicas)
            delta = shard.delta()  # extends generation 0: never adopted
            with pytest.raises(parallel.ReplicaRefused):
                parallel._advance_shard(0, delta, 20.0, replicas)
            with pytest.raises(parallel.ReplicaRefused):
                parallel._advance_shard(0, shard.delta(), 20.0, {})
            assert replicas[0][0] == 1, "a refused delta must not be applied"
        finally:
            service.close()

    def test_a_monitor_registered_after_the_first_advance_reaches_the_replica(self):
        samples = fleet.make_stream(seed=7, regress_index=3)

        def run(workers):
            sink = CollectingSink()
            service = fleet.make_service(sink, workers)
            try:
                chunk = 200 * len(fleet.SERIES)
                for round_index, begin in enumerate(range(0, len(samples), chunk)):
                    if round_index == 2:
                        service.register_monitor(
                            "late",
                            fleet.small_config(name="late", threshold=0.0001),
                            series_filter={"metric": "gcpu"},
                        )
                    batch = samples[begin : begin + chunk]
                    service.ingest_many(batch)
                    service.advance_to(batch[-1].timestamp + fleet.INTERVAL)
                scans = [shard.scans for shard in service.stats().shards]
                return sink.reports, scans, advance_counters(service)
            finally:
                service.close()

        serial_reports, serial_scans, _ = run(workers=1)
        parallel_reports, parallel_scans, counters = run(workers=2)
        assert fleet.report_bytes(parallel_reports) == fleet.report_bytes(serial_reports)
        assert parallel_scans == serial_scans
        assert counters["reseeds"] == 2.0  # every shard's scheduler changed: both re-forked


class TestLogBound:
    def test_a_log_that_outgrows_the_database_is_dropped(self):
        """The same tail re-sent over and over writes points the
        database does not grow by: replaying them would cost more than
        a re-fork, so the log goes — and the next advance re-forks."""
        def run(workers):
            sink = CollectingSink()
            service = fleet.make_service(sink, workers)
            tail = [
                Sample(name, tick * fleet.INTERVAL, 0.001 + 1e-6 * tick, {"metric": "gcpu"})
                for name in fleet.SERIES
                for tick in range(40)
            ]
            try:
                service.ingest_many(tail)
                service.advance_to(40 * fleet.INTERVAL)
                dropped = set()
                for _ in range(3):
                    service.ingest_many(tail)
                    service.flush()
                    for shard_id, shard in service._shards.items():
                        log = shard.worker.write_log
                        if workers > 1 and log is None:
                            dropped.add(shard_id)
                        elif log is not None:
                            assert log.points <= points(shard.database)
                service.advance_to(80 * fleet.INTERVAL)
                return databases(service), dropped, advance_counters(service)
            finally:
                service.close()

        serial, _, _ = run(workers=1)
        replicated, dropped, counters = run(workers=2)
        assert replicated == serial
        populated = {i for i, database in enumerate(serial) if database}
        assert dropped == populated and populated
        assert counters["reseeds"] == float(len({shard_id % 2 for shard_id in populated}))


class TestReplayOffTheFastPath:
    """Dirty data makes ``write_batch`` merge, overwrite and drop; the
    replica must take the same turns."""

    @staticmethod
    def rounds():
        """The quality drill's dirty stream in its timestamp rounds,
        each followed by the previous round's tail re-sent (duplicates
        of flushed points) and one late frame head."""
        samples = dirty_stream(drill.make_stream(), drill.dirty_spec())
        span = drill.ROUND_TICKS * drill.INTERVAL
        batches = []
        for index in range(-(-drill.N_TICKS // drill.ROUND_TICKS)):
            begin, end = index * span, (index + 1) * span
            batch = [s for s in samples if begin <= s.timestamp < end]
            resent = [s for s in samples if begin - 20 * drill.INTERVAL <= s.timestamp < begin]
            late = [s for s in batch if s.name == drill.SERIES[4]][:5]
            batches.append((batch + resent + late, end))
        return batches

    def run(self, workers):
        sink = CollectingSink()
        service = drill.make_service(sink, workers=workers)
        try:
            for batch, end in self.rounds():
                service.ingest_many(batch)
                service.advance_to(end)
            quality = service.stats()
            return sink.reports, databases(service), quality, advance_counters(service)
        finally:
            service.close()

    def test_workers_2_over_dirty_rounds_equals_workers_1(self):
        serial_reports, serial_dbs, serial_stats, _ = self.run(workers=1)
        reports, dbs, stats, counters = self.run(workers=2)
        assert drill.report_bytes(reports) == drill.report_bytes(serial_reports)
        assert [r.metric_id for r in reports] == [drill.SERIES[drill.REGRESS_INDEX]]
        assert dbs == serial_dbs
        assert [s.counters for s in stats.shards] == [s.counters for s in serial_stats.shards]
        assert sum(s.counters["quality_quarantined"] for s in stats.shards) > 0
        # Re-sent points were written (over what was there): the slow path ran.
        assert stats.flushed > sum(points(database) for database in dbs)
        assert set(counters) == {"bytes_out", "bytes_in"}  # deltas all the way

    def test_the_replica_itself_equals_the_live_database(self):
        """The worker entry point run in-process, its replicas in a
        dict this test can read: after every dirty round, each shard's
        replica holds exactly what the live database holds."""
        service = StreamingDetectionService(
            n_shards=2, workers=1, retention=400 * drill.INTERVAL, batch_size=64,
        )
        service.register_monitor(
            "gcpu", drill.small_config(), series_filter={"metric": "gcpu"}
        )
        replicas = {}
        try:
            for round_index, (batch, end) in enumerate(self.rounds()):
                service.ingest_many(batch)
                for shard_id, shard in service._shards.items():
                    blob = shard.delta()
                    if not blob:  # no replica yet: one as a fork copies it
                        with shard.forking() as state:
                            replicas[shard_id] = (0, *pickle.loads(pickle.dumps(state)))
                    result = parallel._advance_shard(shard_id, blob, end, replicas)
                    # Over the pipe, as a copy: the replica keeps its own.
                    shard.adopt(pickle.loads(pickle.dumps(result.state)))
                    generation, scheduler, replica = replicas[shard_id]
                    assert generation == round_index + 1
                    assert list(replica) == list(shard.database) and len(replica) > 0
                    assert scheduler.retention_cutoff == shard.scheduler.retention_cutoff
            assert shard.scheduler.retention_cutoff is not None
        finally:
            service.close()
