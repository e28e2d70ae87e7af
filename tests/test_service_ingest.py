"""Tests for repro.service.ingest (bounded queues and backpressure)."""

import json
import pickle
import urllib.request

import numpy as np
import pytest

from repro.connectors import RemoteWriteReceiver
from repro.quality import AdmissionController
from repro.service import BackpressurePolicy, Sample, ShardIngestWorker, StreamingDetectionService
from repro.tsdb import SeriesFrame, TimeSeries, TimeSeriesDatabase


def frame(n, name="s.gcpu", start=0.0):
    """``n`` in-order points of one series, valued 1..n, as one frame."""
    return SeriesFrame(
        name, {}, [start + i * 60.0 for i in range(n)], [float(i + 1) for i in range(n)]
    )


def samples(n, name="s.gcpu", start=0.0):
    """The same points as :func:`frame`, as ``n`` one-row frames."""
    whole = frame(n, name, start)
    return [whole[i : i + 1] for i in range(n)]


def row(name, timestamp, value, tags=None):
    return SeriesFrame(name, tags, [timestamp], [value])


def make_worker(policy, capacity=4, batch_size=2):
    db = TimeSeriesDatabase()
    worker = ShardIngestWorker(
        0, db, AdmissionController(0), capacity=capacity, policy=policy, batch_size=batch_size
    )
    return db, worker


class TestRejectPolicy:
    def test_rejects_beyond_capacity(self):
        db, worker = make_worker(BackpressurePolicy.REJECT)
        results = [worker.offer([s]) for s in samples(6)]
        assert results == [1] * 4 + [0] * 2
        assert worker.rejected == 2
        assert worker.pending == 4

    def test_frame_is_split_at_the_room_and_the_tail_refused(self):
        db, worker = make_worker(BackpressurePolicy.REJECT)
        assert worker.offer([frame(6)]) == 4
        assert (worker.offered, worker.accepted, worker.rejected) == (6, 4, 2)
        assert worker.pending == 4
        worker.flush()
        assert list(db.get("s.gcpu").values) == [1.0, 2.0, 3.0, 4.0]

    def test_rejected_samples_never_reach_tsdb(self):
        db, worker = make_worker(BackpressurePolicy.REJECT)
        for s in samples(6):
            worker.offer([s])
        worker.flush()
        series = db.get("s.gcpu")
        # The oldest 4 were kept; the newest 2 rejected.
        assert list(series.values) == [1.0, 2.0, 3.0, 4.0]


class TestDropOldestPolicy:
    def test_oldest_evicted(self):
        db, worker = make_worker(BackpressurePolicy.DROP_OLDEST)
        for s in samples(6):
            assert worker.offer([s])  # drop-oldest never refuses the new sample
        assert worker.dropped_oldest == 2
        worker.flush()
        # The newest 4 survived.
        assert list(db.get("s.gcpu").values) == [3.0, 4.0, 5.0, 6.0]

    def test_frames_trim_the_heads_of_the_oldest_frames(self):
        db, worker = make_worker(BackpressurePolicy.DROP_OLDEST)
        assert worker.offer([frame(3)]) == 3
        assert worker.offer([frame(3, start=180.0)]) == 3  # evicts 2 of the first
        assert (worker.dropped_oldest, worker.pending) == (2, 4)
        # A frame larger than the queue keeps only its own newest rows.
        assert worker.offer([frame(6, start=360.0)]) == 6
        assert (worker.dropped_oldest, worker.pending) == (8, 4)
        worker.flush()
        assert list(db.get("s.gcpu").timestamps) == [480.0, 540.0, 600.0, 660.0]


class TestBlockPolicy:
    def test_caller_runs_flush_keeps_everything(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK)
        for s in samples(10):
            assert worker.offer([s])
        worker.flush()
        assert worker.blocking_flushes >= 1
        assert worker.dropped_oldest == 0 and worker.rejected == 0
        assert list(db.get("s.gcpu").values) == [float(i + 1) for i in range(10)]

    def test_frame_flushes_a_batch_and_continues(self):
        by_row = make_worker(BackpressurePolicy.BLOCK)[1]
        for s in samples(10):
            by_row.offer([s])
        db, worker = make_worker(BackpressurePolicy.BLOCK)
        assert worker.offer([frame(10)]) == 10
        # Sample-exact: the same batches were flushed to make room.
        assert worker.counters() == by_row.counters()
        worker.flush()
        assert list(db.get("s.gcpu").values) == [float(i + 1) for i in range(10)]


class TestTheDefaultPolicy:
    def test_a_default_built_service_loses_nothing(self):
        """The bug: with no thread draining a queue, the default policy
        (``DROP_OLDEST``) kept 4,096 of the 20,000 rows one call offered
        and said so only in ``dropped``.  The default is ``BLOCK``."""
        service = StreamingDetectionService()
        rows = [Sample(f"s{i}.gcpu", t * 60.0, 1.0) for t in range(2_000) for i in range(10)]
        assert service.ingest_many(rows) == 20_000
        service.flush()
        stored = sum(
            len(series)
            for shard_id in range(service.n_shards)
            for series in service.shard_database(shard_id)
        )
        assert stored == 20_000 and service.stats().dropped == 0
        worker = ShardIngestWorker(0, TimeSeriesDatabase(), AdmissionController(0))
        assert worker.policy is BackpressurePolicy.BLOCK


class TestFlushing:
    def test_flush_returns_written_count(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK, capacity=100)
        for s in samples(7):
            worker.offer([s])
        assert worker.flush() == 7
        assert worker.pending == 0
        assert worker.flushed == 7

    def test_flush_batches_by_batch_size(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK, capacity=100, batch_size=3)
        for s in samples(7):
            worker.offer([s])
        worker.flush()
        assert worker.flushes == 3  # 3 + 3 + 1

    def test_batch_groups_multiple_series(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK, capacity=100, batch_size=100)
        worker.offer([row("a.gcpu", 0.0, 1.0, {"metric": "gcpu"})])
        worker.offer([row("b.gcpu", 0.0, 2.0, {"metric": "gcpu"})])
        worker.offer([row("a.gcpu", 60.0, 3.0, {"metric": "gcpu"})])
        worker.flush()
        assert list(db.get("a.gcpu").values) == [1.0, 3.0]
        assert list(db.get("b.gcpu").values) == [2.0]
        assert db.get("a.gcpu").tags == {"metric": "gcpu"}

    def test_out_of_order_sample_inserted_sorted(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK, capacity=100)
        worker.offer([row("s", 120.0, 2.0)])
        worker.offer([row("s", 60.0, 1.0)])  # straggler
        worker.flush()
        assert list(db.get("s").timestamps) == [60.0, 120.0]

    def test_offer_many(self):
        db, worker = make_worker(BackpressurePolicy.REJECT, capacity=3)
        assert worker.offer([frame(5)]) == 3

    def test_batches_split_frames_at_batch_size(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK, capacity=100, batch_size=3)
        worker.offer([frame(7)])
        assert worker.flush() == 7
        assert worker.flushes == 3  # 3 + 3 + 1, as for seven one-row frames


class TestCountersAndMetrics:
    def test_counters_dict(self):
        db, worker = make_worker(BackpressurePolicy.DROP_OLDEST)
        for s in samples(6):
            worker.offer([s])
        worker.flush()
        counters = worker.counters()
        assert counters["offered"] == 6
        assert counters["accepted"] == 6
        assert counters["dropped_oldest"] == 2
        assert counters["flushed"] == 4
        assert counters["pending"] == 0

    def test_ingest_metrics_live_on_the_worker(self):
        """The worker is the one home of the ``ingest.*`` metrics: its
        ints and its flush histogram, which pickles as a plain state."""
        db, worker = make_worker(BackpressurePolicy.DROP_OLDEST)
        for s in samples(6):
            worker.offer([s])
        worker.flush()
        assert (worker.accepted, worker.dropped_oldest, worker.flushed) == (6, 2, 4)
        assert worker.flush_seconds.count == worker.flushes >= 1
        clone = pickle.loads(pickle.dumps(worker))
        assert clone.flush_seconds.state() == worker.flush_seconds.state()
        assert b"Histogram" not in pickle.dumps(worker)
        assert not hasattr(worker, "metrics")

    def test_invalid_params(self):
        db = TimeSeriesDatabase()
        with pytest.raises(ValueError):
            ShardIngestWorker(0, db, AdmissionController(0), capacity=0)
        with pytest.raises(ValueError):
            ShardIngestWorker(0, db, AdmissionController(0), batch_size=0)


class TestFlushFailureSafety:
    """A failed batch write must not lose the popped samples."""

    def test_failed_flush_requeues_batch_in_order(self):
        db, worker = make_worker(BackpressurePolicy.BLOCK, capacity=16, batch_size=4)
        write_batch = db.write_batch
        failures = [OSError("the first batch write fails")]

        def failing_once(rows):
            if failures:
                raise failures.pop()
            return write_batch(rows)

        db.write_batch = failing_once
        worker.offer([frame(6)])
        with pytest.raises(OSError):
            worker.flush()
        # Nothing written, nothing lost, order preserved.
        assert worker.pending == 6
        assert worker.flushed == 0
        assert worker.flush_failures == 1 == worker.counters()["flush_failures"]
        assert worker.flush_seconds.count == 0  # a failed write is not a flush
        # The retry writes the same samples in the same order.
        assert worker.flush() == 6
        series = db.get("s.gcpu")
        assert [value for _, value in series] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_database_error_requeues_batch(self):
        db, worker = make_worker(BackpressurePolicy.DROP_OLDEST, capacity=16)

        class Boom(RuntimeError):
            pass

        original = worker.database.write_batch

        def failing(rows):
            raise Boom("disk on fire")

        worker.offer([frame(3)])
        worker.database.write_batch = failing
        with pytest.raises(Boom):
            worker.flush()
        assert worker.pending == 3
        worker.database.write_batch = original
        assert worker.flush() == 3


def admitting_worker():
    return make_worker(BackpressurePolicy.BLOCK, capacity=1 << 16, batch_size=256)


def columns(databases):
    """Every series' stored columns, by name."""
    return {
        series.name: (series.timestamps.tolist(), series.values.tolist())
        for database in databases
        for series in database
    }


#: ``s`` at t = 60 … 300 with values 1 … 5, then t = 180 re-sent as 99.
ORIGINAL = [(60.0 * k, float(k)) for k in range(1, 6)]
RESENT = (180.0, 99.0)
EXPECTED = ([60.0, 120.0, 180.0, 240.0, 300.0], [1.0, 2.0, 99.0, 4.0, 5.0])


class TestResentPointWinsWhereverTheFlushFalls:
    """A re-sent point arrives behind its series' watermark, so admission
    holds it as a straggler.  Released at the flush, it must still be
    written after the original it repeats: the TSDB equals the run where
    a flush sits between the two offers."""

    def test_through_a_worker(self):
        def run(flush_between):
            db, worker = admitting_worker()
            worker.offer([SeriesFrame("s", {}, *zip(*ORIGINAL))])
            if flush_between:
                worker.flush()
            worker.offer([row("s", *RESENT)])
            worker.flush()
            return columns([db])

        assert run(flush_between=False) == run(flush_between=True) == {"s": EXPECTED}

    def test_through_ingest_many(self):
        tags = {"metric": "gcpu"}
        original = [Sample("s.gcpu", ts, value, tags) for ts, value in ORIGINAL]
        resent = [Sample("s.gcpu", *RESENT, tags)]

        def run(calls, flush_between=False):
            service = StreamingDetectionService(n_shards=2)
            try:
                for index, samples in enumerate(calls):
                    if index and flush_between:
                        service.flush()
                    service.ingest_many(samples)
                service.flush()
                return columns(service.shard_database(i) for i in range(2))
            finally:
                service.close()

        flushed = run([original, resent], flush_between=True)
        assert flushed == {"s.gcpu": EXPECTED}
        assert run([original, resent]) == flushed
        assert run([original + resent]) == flushed

    def test_through_two_remote_write_posts(self):
        def body(points):
            samples = [[int(ts * 1000), value] for ts, value in points]
            return json.dumps({"series": [{"name": "s", "samples": samples}]}).encode()

        def post(url, data):
            request = urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(request, timeout=5.0) as response:
                assert response.status == 200

        def run(flush_between):
            service = StreamingDetectionService(n_shards=2)
            try:
                with RemoteWriteReceiver(service) as receiver:
                    post(receiver.url, body(ORIGINAL))
                    if flush_between:
                        service.flush()
                    post(receiver.url, body([RESENT]))
                service.flush()
                return columns(service.shard_database(i) for i in range(2))
            finally:
                service.close()

        flushed = run(flush_between=True)
        assert list(flushed.values()) == [EXPECTED]
        assert run(flush_between=False) == flushed


class TestInOrderDataIsNeverMerged:
    def test_in_order_counter_frames_append_without_a_merge(self, monkeypatch):
        """A counter's frames are held for reset detection; released at
        the back of the queue, they land above everything stored for the
        series, so 25-row in-order frames never take the merge."""
        merged = []
        merge = TimeSeries._merge

        def counting(series, ts, vals):
            merged.append(series.name)
            merge(series, ts, vals)

        monkeypatch.setattr(TimeSeries, "_merge", counting)
        db, worker = admitting_worker()
        tags = {"metric": "requests", "type": "counter"}
        names = [f"edge.route{i}.requests_total" for i in range(4)]
        points = 40 * 25
        for start in range(0, points, 25):
            ticks = np.arange(start, start + 25, dtype=float)
            for i, name in enumerate(names):
                worker.offer([SeriesFrame(name, tags, ticks * 60.0, (i + 1) * (ticks + 1))])
            worker.flush()
        assert merged == []
        ticks = np.arange(points, dtype=float)
        assert columns([db]) == {
            name: ((ticks * 60.0).tolist(), ((i + 1) * (ticks + 1)).tolist())
            for i, name in enumerate(names)
        }

    def test_a_straggler_merge_writes_fresh_buffers_with_slack(self):
        series = TimeSeries("s")
        series.ingest_columns(np.arange(8.0) * 60.0, np.arange(8.0))
        assert series._timestamps.capacity == len(series)  # no slack left
        stamps, values = series._timestamps.view(), series.values_between(0.0, 1e9)
        before = (stamps.tobytes(), values.tobytes())
        series.ingest_columns(np.array([150.0, 480.0, 90.0]), np.array([9.0, 9.5, 9.9]))
        assert (stamps.tobytes(), values.tobytes()) == before
        assert list(series.timestamps) == [0.0, 60.0, 90.0, 120.0, 150.0] + [
            180.0, 240.0, 300.0, 360.0, 420.0, 480.0
        ]
        assert series._timestamps.capacity > len(series)
        assert series._values.capacity > len(series)
