"""Model-based equality tests: array-backed TimeSeries vs a list model.

The columnar :class:`~repro.tsdb.TimeSeries` (contiguous numpy buffers,
amortized doubling, zero-copy tail views) must be observationally
identical to the obvious pure-Python implementation — element for
element, across every mutation path (``append`` / ``ingest_many`` /
``drop_before``), every read path (``values`` /
``timestamps`` / ``between`` / ``values_between`` / ``cut`` /
``latest``).  Hypothesis drives random interleavings against the
reference model below; any divergence is a storage-layer bug.

A further test replays an :class:`~repro.quality.AdmissionController`
counter-rollover stream (the rebase path) into both backends and checks
they land on the same rebased cumulative.

The same idea then covers the whole ingest layer
(:class:`TestFrameSplitsMatchRowByRow`): one sample stream — clean rows,
NaN/Inf, negatives on a non-negative metric, counter rollovers,
duplicates, stragglers within and beyond the reorder window — offered to
a :class:`~repro.service.ShardIngestWorker` as arbitrary frame splits
must leave exactly what offering it one row at a time leaves: admission
counters, quarantine records, quality scores, worker counters and the
TSDB's column bytes, and, for a single series, under every
backpressure policy at a queue bound the stream
overflows.  The row-at-a-time run is itself held against a model of the
per-sample queue this layer replaced.

Grouping frames into calls is invisible too
(:class:`TestShardBatchesMatchOneCallPerFrame`): through a two-shard
service, any partition of a dirty frame list into ``ingest_frames``
calls leaves every shard where one call per frame — and one call per
row — leaves it, under every backpressure policy at a small queue.

The read replica a worker process keeps
(:class:`TestReplicaFollowsTheLog`): a copy of a database taken at any
point, fed the :class:`~repro.service.shard.WriteLog` of what was
written since — frames in order, shuffled, repeating timestamps, arriving
late, with retention cutoffs in between — equals the live database.

Admission holds an orderly counter frame whole; against the row logic
it replaced (``_reference_kernels.RowAdmission``) every call's outcome,
counter, quarantine record and release is equal bit for bit
(:class:`TestAdmissionMatchesTheRowReference`).

Last, arrival order is write order (:class:`TestArrivalOrderIsWriteOrder`):
for any frame split, flush points and cross-series interleaving that
keeps each series' order, a gauge stores the last finite arrival per
timestamp and an in-order counter the running-offset rebase, appended
without a merge; and through the service a stepped dirty stream reports
the same set (:class:`TestReportsIgnoreSplitsAndInterleaving`).
"""

import bisect
import functools
import json
import math
import pickle
import random
from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernels as ref
from repro.config import DetectionConfig
from repro.fleet import DirtyDataSpec, dirty_stream
from repro.quality import AdmissionController, admission
from repro.runtime import CollectingSink
from repro.service import (
    BackpressurePolicy,
    ShardIngestWorker,
    StreamingDetectionService,
    frames_of,
)
from repro.service.ingest import Sample
from repro.service.shard import WriteLog
from repro.tsdb import FrameColumns, SeriesFrame, TimeSeries, TimeSeriesDatabase, WindowSpec


class ListSeries:
    """Reference model: TimeSeries semantics over two Python lists."""

    def __init__(self):
        self.ts = []
        self.vals = []

    def append(self, timestamp, value):
        if self.ts and timestamp < self.ts[-1]:
            raise ValueError("out of order")
        if self.ts and timestamp == self.ts[-1]:
            self.vals[-1] = value
            return
        self.ts.append(timestamp)
        self.vals.append(value)

    def ingest_many(self, points):
        # Point-at-a-time insertion is the latest arrival winning at
        # every repeated timestamp, however batched.
        written = 0
        for timestamp, value in points:
            pos = bisect.bisect_right(self.ts, timestamp)
            if pos and self.ts[pos - 1] == timestamp:
                self.vals[pos - 1] = value
            else:
                self.ts.insert(pos, timestamp)
                self.vals.insert(pos, value)
            written += 1
        return written

    def drop_before(self, cutoff):
        pos = bisect.bisect_left(self.ts, cutoff)
        del self.ts[:pos]
        del self.vals[:pos]
        return pos


def assert_same_state(series, model):
    assert list(series.timestamps) == model.ts
    assert list(series.values) == model.vals
    assert len(series) == len(model.ts)
    if model.ts:
        assert series.latest() == (model.ts[-1], model.vals[-1])
        assert series.start == model.ts[0]
        assert series.end == model.ts[-1]
    else:
        assert series.latest() is None


def assert_same_windows(series, model, start, end, k):
    lo = bisect.bisect_left(model.ts, start)
    hi = bisect.bisect_left(model.ts, end)
    assert list(series.values_between(start, end)) == model.vals[lo:hi]
    window = series.between(start, end)
    assert list(window.timestamps) == model.ts[lo:hi]
    assert list(window.values) == model.vals[lo:hi]
    k = min(k, len(model.ts))
    bounds = (model.ts[-k] if k else math.inf, math.inf)
    at, stamps, values = series.cut(bounds)
    assert (list(stamps), list(values)) == ((model.ts[-k:], model.vals[-k:]) if k else ([], []))
    assert at == (len(model.ts) - k, len(model.ts))


# Timestamps on a tiny integer grid so duplicates and stragglers are
# common; values only need to be distinguishable.
_ts = st.integers(min_value=0, max_value=40).map(float)
_val = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_point = st.tuples(_ts, _val)

_op = st.one_of(
    st.tuples(st.just("append"), _point),
    st.tuples(st.just("ingest"), st.lists(_point, min_size=1, max_size=8)),
    st.tuples(st.just("drop_before"), _ts),
)


def _apply(series, model, op, payload):
    """Apply one op to both backends; both must agree on raising."""
    if op == "append":
        timestamp, value = payload
        real = model_exc = None
        try:
            series.append(timestamp, value)
        except ValueError as exc:
            real = exc
        try:
            model.append(timestamp, value)
        except ValueError as exc:
            model_exc = exc
        assert (real is None) == (model_exc is None)
    elif op == "ingest":
        real = model_exc = None
        try:
            written = series.ingest_many(payload)
        except ValueError as exc:
            real = exc
        try:
            expected = model.ingest_many(payload)
        except ValueError as exc:
            model_exc = exc
        assert (real is None) == (model_exc is None)
        if real is None:
            assert written == expected
    elif op == "drop_before":
        assert series.drop_before(payload) == model.drop_before(payload)
    else:  # pragma: no cover - strategy bug
        raise AssertionError(op)


class TestColumnarMatchesListModel:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(_op, min_size=1, max_size=40),
        start=_ts,
        width=st.integers(min_value=0, max_value=20),
        k=st.integers(min_value=0, max_value=12),
    )
    def test_last_write_wins_interleavings(self, ops, start, width, k):
        series = TimeSeries(name="p")
        model = ListSeries()
        for op, payload in ops:
            _apply(series, model, op, payload)
            assert_same_state(series, model)
        assert_same_windows(series, model, start, start + width, k)

    @settings(max_examples=100, deadline=None)
    @given(
        increments=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=4,
            max_size=24,
        ),
        reset_at=st.integers(min_value=1, max_value=23),
        restart=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    def test_counter_rebase_replays_identically(self, increments, reset_at, restart):
        """Admission-controller counter output lands identically in both."""
        reset_at = min(reset_at, len(increments) - 1)
        raw = []
        running = 0.0
        for i, inc in enumerate(increments):
            if i == reset_at:
                running = restart  # the counter process restarted
            running += inc
            raw.append(running)

        controller = AdmissionController(0)
        frame = SeriesFrame(
            "cpu", {"type": "counter"}, [float(i * 60) for i in range(len(raw))], raw
        )
        released = []
        with _reorder_window(4):
            judged = controller.admit([frame])
            for consumed, held, admitted, overflow in judged:
                assert held == consumed and admitted is None  # counters ride the buffer
                if overflow is not None:
                    released.append(overflow)
            assert sum(consumed for consumed, *_ in judged) == len(raw)
            released.extend(controller.drain_pending())
        emitted = sorted(
            (
                Sample(frame.name, timestamp, value)
                for frame in released
                for timestamp, value in zip(frame.timestamps.tolist(), frame.values.tolist())
            ),
            key=lambda s: s.timestamp,
        )
        assert len(emitted) == len(raw)

        # The rebase keeps the cumulative continuous across the restart.
        values = [s.value for s in emitted]
        assert all(b >= a for a, b in zip(values, values[1:]))
        if raw[reset_at] < raw[reset_at - 1]:
            assert controller.counter_resets >= 1

        series = TimeSeries(name="cpu")
        model = ListSeries()
        for sample in emitted:
            series.append(sample.timestamp, sample.value)
            model.append(sample.timestamp, sample.value)
        assert_same_state(series, model)


# ---------------------------------------------------------------------------
# The ingest layer: frame splits vs one row at a time
# ---------------------------------------------------------------------------

_TAGS = {
    "g": {"metric": "gcpu"},                        # non-negative gauge
    "d": {"metric": "delta"},                       # any sign
    "c": {"metric": "requests", "type": "counter"},
}
# A tiny grid again: repeats and stragglers everywhere, and with the
# reorder window shrunk to 3 plenty of them overflow the reorder buffer.
_stream_value = st.one_of(
    st.integers(min_value=0, max_value=50).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.5]),
)
_stream_ts = st.integers(min_value=0, max_value=30).map(float)
_stream_row = st.tuples(st.sampled_from(sorted(_TAGS)), _stream_ts, _stream_value)


def _reorder_window(rows):
    """Admission's reorder bound shrunk to ``rows`` for a ``with`` block."""
    return patch.object(admission, "REORDER_WINDOW", rows)


def _samples(rows):
    return [Sample(name, timestamp, value, _TAGS[name]) for name, timestamp, value in rows]


def _chunks(samples, cuts):
    """``samples`` split at the (deduplicated, sorted) ``cuts``."""
    edges = sorted({cut for cut in cuts if 0 < cut < len(samples)} | {0, len(samples)})
    return [samples[a:b] for a, b in zip(edges, edges[1:])]


def _worker(policy, capacity, batch_size=4):
    return ShardIngestWorker(
        0, TimeSeriesDatabase(), AdmissionController(0), capacity=capacity, policy=policy,
        batch_size=batch_size,
    )


def _observe(worker):
    """Everything the property compares, per series where order across
    series is free (a chunk is offered series-major)."""
    admission = worker.admission
    names = sorted(admission._series)
    return {
        "worker": worker.counters(),
        "quarantine": {
            name: [record for record in admission.quarantine._records if record[0] == name]
            for name in names
        },
        "reasons": {name: admission.quarantine.reasons(name) for name in names},
        "scores": {name: admission.quality_score(name) for name in names},
        "columns": {
            series.name: (series._timestamps.view().tobytes(), series._values.view().tobytes())
            for series in worker.database
        },
    }


def _run(worker, chunks, flush_after, by_row):
    """Offer each chunk — as its per-series frames, or one row at a time
    in stream order — flushing after the chunks in ``flush_after``."""
    accepted = 0
    for index, chunk in enumerate(chunks):
        if by_row:
            frames = [SeriesFrame(s.name, s.tags, [s.timestamp], [s.value]) for s in chunk]
        else:
            frames = frames_of(chunk)
        accepted += sum(worker.offer([frame]) for frame in frames)
        if index in flush_after:
            worker.flush()
    worker.flush()
    return accepted


class _RowQueueModel:
    """The per-sample bounded queue this layer replaced, without admission."""

    def __init__(self, policy, capacity, batch_size):
        self.policy, self.capacity, self.batch_size = policy, capacity, batch_size
        self.queue, self.written = deque(), []
        self.counts = dict.fromkeys(
            ("offered", "accepted", "rejected", "dropped_oldest", "blocking_flushes",
             "flushes", "flushed"), 0
        )

    def flush_batch(self):
        batch = [self.queue.popleft() for _ in range(min(self.batch_size, len(self.queue)))]
        self.written.extend(batch)
        self.counts["flushed"] += len(batch)
        self.counts["flushes"] += 1

    def offer(self, point):
        self.counts["offered"] += 1
        if len(self.queue) >= self.capacity:
            if self.policy is BackpressurePolicy.REJECT:
                self.counts["rejected"] += 1
                return
            if self.policy is BackpressurePolicy.DROP_OLDEST:
                self.queue.popleft()
                self.counts["dropped_oldest"] += 1
            else:
                self.counts["blocking_flushes"] += 1
                self.flush_batch()
        self.queue.append(point)
        self.counts["accepted"] += 1

    def flush(self):
        while self.queue:
            self.flush_batch()


class TestFrameSplitsMatchRowByRow:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(_stream_row, min_size=1, max_size=60),
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=8),
        flushes=st.sets(st.integers(min_value=0, max_value=8), max_size=3),
    )
    def test_any_split_of_a_dirty_stream_leaves_the_same_state(self, rows, cuts, flushes):
        chunks = _chunks(_samples(rows), cuts)
        whole = _worker(BackpressurePolicy.BLOCK, capacity=1 << 16)
        by_row = _worker(BackpressurePolicy.BLOCK, capacity=1 << 16)
        with _reorder_window(3):
            assert _run(whole, chunks, flushes, by_row=False) == _run(
                by_row, chunks, flushes, by_row=True
            )
        assert _observe(whole) == _observe(by_row)
        assert whole.pending == 0 and whole.admission.buffered == 0

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from("gc"),
        points=st.lists(st.tuples(_stream_ts, _stream_value), min_size=1, max_size=60),
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=8),
        flushes=st.sets(st.integers(min_value=0, max_value=8), max_size=2),
        policy=st.sampled_from(list(BackpressurePolicy)),
        capacity=st.integers(min_value=1, max_value=12),
    )
    def test_single_series_backpressure_is_exact_to_the_sample(
        self, name, points, cuts, flushes, policy, capacity
    ):
        """Dirt, stragglers and a queue the stream overflows, all at once."""
        chunks = _chunks(_samples([(name, ts, value) for ts, value in points]), cuts)
        whole = _worker(policy, capacity)
        by_row = _worker(policy, capacity)
        with _reorder_window(3):
            assert _run(whole, chunks, flushes, by_row=False) == _run(
                by_row, chunks, flushes, by_row=True
            )
        assert _observe(whole) == _observe(by_row)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=8),
        policy=st.sampled_from(list(BackpressurePolicy)),
        capacity=st.integers(min_value=1, max_value=12),
        batch_size=st.integers(min_value=1, max_value=6),
    )
    def test_clean_stream_matches_the_per_sample_queue_it_replaced(
        self, n, cuts, policy, capacity, batch_size
    ):
        points = [("g", float(i), float(i + 1)) for i in range(n)]
        model = _RowQueueModel(policy, capacity, batch_size)
        for point in points:
            model.offer(point)
        model.flush()
        worker = _worker(policy, capacity, batch_size)
        for chunk in _chunks(_samples(points), cuts):
            for frame in frames_of(chunk):
                worker.offer([frame])
        worker.flush()
        counters = worker.counters()
        assert {key: counters[key] for key in model.counts} == model.counts
        stored = worker.database.get("g")
        assert ([] if stored is None else list(stored)) == [
            (timestamp, value) for _, timestamp, value in model.written
        ]


# ---------------------------------------------------------------------------
# Shard batches: any grouping of frames into calls, one call per frame
# ---------------------------------------------------------------------------

#: Two non-negative gauges, an any-sign gauge and two counters.  Counter
#: values are integers on a small range, so a drop (a rollover) is common.
_BATCH_TAGS = {
    "g0": {"metric": "gcpu"},
    "g1": {"metric": "gcpu"},
    "d": {"metric": "delta"},
    "c0": {"metric": "requests", "type": "counter"},
    "c1": {"metric": "requests", "type": "counter"},
}
_batch_frame = st.builds(
    lambda name, rows: SeriesFrame(
        name, _BATCH_TAGS[name], [t for t, _ in rows], [v for _, v in rows]
    ),
    st.sampled_from(sorted(_BATCH_TAGS)),
    # Empty frames too; a tiny grid makes re-sent points and stragglers
    # common, and so are NaN / Inf / negatives.
    st.lists(st.tuples(_stream_ts, _stream_value), max_size=8),
)


def _offer_grouped(service, frames, edges, flush_at, by_row=False):
    """Offer ``frames`` as one ``ingest_frames`` call per span between
    consecutive ``edges`` — or, ``by_row``, one call per row — flushing
    after the spans that end in ``flush_at``."""
    accepted = 0
    for a, b in zip(edges, edges[1:]):
        if by_row:
            accepted += sum(
                service.ingest_frames([frame[row : row + 1]])
                for frame in frames[a:b]
                for row in range(len(frame))
            )
        else:
            accepted += service.ingest_frames(frames[a:b])
        if b in flush_at:
            service.flush()
    service.flush()
    return accepted


def _shard_states(service):
    """Per shard, everything an offer leaves behind, in the order it was
    left: counters, quarantine records, series creation order, column
    bytes."""
    states = []
    for shard_id in range(service.n_shards):
        worker = service._shards[shard_id].worker
        controller = worker.admission
        states.append({
            "counters": worker.counters(),
            "by_reason": dict(controller.quarantined_by_reason),
            "quarantine": list(controller.quarantine._records),
            "admission_series": list(controller._series),
            "columns": [
                (series.name, series._timestamps.view().tobytes(), series._values.view().tobytes())
                for series in worker.database
            ],
        })
    return states


def _two_shards(policy, capacity, batch_size):
    return StreamingDetectionService(
        n_shards=2, queue_capacity=capacity, backpressure=policy, batch_size=batch_size
    )


_OVERLOADED = [  # a repeated series, an empty frame, and calls past capacity
    SeriesFrame("g0", _BATCH_TAGS["g0"], [1.0, 2.0, 3.0], [0.5, math.nan, 0.7]),
    SeriesFrame("c0", _BATCH_TAGS["c0"], [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 1.0, 2.0]),
    SeriesFrame("d", _BATCH_TAGS["d"], [], []),
    SeriesFrame("g0", _BATCH_TAGS["g0"], [4.0, 2.0, 5.0, 5.0, 6.0], [0.1, -1.0, 0.2, 0.3, 0.4]),
    SeriesFrame("c0", _BATCH_TAGS["c0"], [5.0, 6.0, 7.0, 8.0], [3.0, 4.0, 5.0, 6.0]),
    SeriesFrame("g1", _BATCH_TAGS["g1"], [7.0, 8.0, 9.0, 10.0], [0.2, 0.3, 0.4, 0.5]),
]
#: Two held counter rows, then a frame whose second row releases all
#: four into a queue of four: the rows behind the release find it full.
_RELEASE_FILLS_THE_QUEUE = [
    SeriesFrame("c0", _BATCH_TAGS["c0"], [1.0, 2.0], [1.0, 2.0]),
    SeriesFrame("c0", _BATCH_TAGS["c0"], [3.0, 4.0, 5.0, 6.0], [3.0, 4.0, 5.0, 6.0]),
]


class TestShardBatchesMatchOneCallPerFrame:
    """``ingest_frames`` offers each shard its frames as one batch: one
    array pass judges what a frame alone decides, state is judged per
    frame, live.  So however the frames are grouped into calls, every
    shard ends where one call per frame leaves it — and where one call
    per row does, the sample-exact reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.lists(_batch_frame, min_size=1, max_size=24),
        cuts=st.lists(st.integers(min_value=1, max_value=23), max_size=6),
        flushes=st.lists(st.integers(min_value=1, max_value=23), max_size=2),
        policy=st.sampled_from(list(BackpressurePolicy)),
        capacity=st.integers(min_value=1, max_value=12),
        batch_size=st.integers(min_value=1, max_value=6),
    )
    @example(
        frames=_OVERLOADED, cuts=[4], flushes=[], policy=BackpressurePolicy.REJECT,
        capacity=6, batch_size=2,
    )
    @example(
        frames=_OVERLOADED, cuts=[], flushes=[], policy=BackpressurePolicy.BLOCK,
        capacity=5, batch_size=3,
    )
    @example(
        frames=_OVERLOADED, cuts=[2], flushes=[2], policy=BackpressurePolicy.DROP_OLDEST,
        capacity=4, batch_size=2,
    )
    @example(
        frames=_RELEASE_FILLS_THE_QUEUE, cuts=[], flushes=[], policy=BackpressurePolicy.REJECT,
        capacity=4, batch_size=2,
    )
    @example(
        frames=_RELEASE_FILLS_THE_QUEUE, cuts=[], flushes=[], policy=BackpressurePolicy.BLOCK,
        capacity=4, batch_size=2,
    )
    def test_any_grouping_leaves_every_shard_where_one_per_call_does(
        self, frames, cuts, flushes, policy, capacity, batch_size
    ):
        edges = sorted({cut for cut in cuts if cut < len(frames)} | {0, len(frames)})
        flush_at = {edge for edge in flushes if edge in edges}
        services = [_two_shards(policy, capacity, batch_size) for _ in range(3)]
        grouped, single, by_row = services
        each = range(len(frames) + 1)
        with _reorder_window(3):
            accepted = {
                _offer_grouped(grouped, frames, edges, flush_at),
                _offer_grouped(single, frames, each, flush_at),
                _offer_grouped(by_row, frames, each, flush_at, by_row=True),
            }
        assert len(accepted) == 1
        assert _shard_states(grouped) == _shard_states(single) == _shard_states(by_row)


# Three series on a 40-tick grid: most frames repeat a timestamp, start
# before what is stored (a late head) or come shuffled.
_frame = st.builds(
    lambda name, rows, tag: SeriesFrame(
        name, {"metric": "gcpu", **tag}, [float(t) for t, _ in rows], [v for _, v in rows]
    ),
    st.sampled_from(["a", "b", "c"]),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 9).map(float)), min_size=1, max_size=8
    ),
    st.sampled_from([{}, {"host": "x"}, {"host": "y"}]),
)
_batch = st.lists(_frame, max_size=4)
#: ``(frames flushed, cutoff)``: a plain flush when the cutoff is
#: ``None``, else an advance — whose frames land between the cut and
#: ``adopt`` (stragglers older than the cutoff among them).
_step = st.tuples(_batch, st.one_of(st.none(), st.integers(0, 40).map(float)))


class TestReplicaFollowsTheLog:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_step, min_size=1, max_size=12), seed_at=st.integers(0, 11))
    def test_a_seed_plus_the_log_equals_the_live_database(self, steps, seed_at):
        live = TimeSeriesDatabase()
        state = {"replica": None, "log": None, "seeds": 0}

        def write(frames):
            batch = FrameColumns.of(frames)
            live.write_batch(batch)
            log = state["log"]
            if log is not None and not log.wrote(batch):
                state["log"] = None  # outgrew the database

        def level():
            """What an advance does first: a delta, or a seed."""
            if state["log"] is None:
                state["replica"] = pickle.loads(pickle.dumps(live))
                state["log"] = WriteLog(live)
                state["seeds"] += 1
            else:
                assert state["log"].points <= sum(len(series) for series in live)
                pickle.loads(pickle.dumps(state["log"].cut())).replay(state["replica"])

        for index, (frames, cutoff) in enumerate(steps):
            if cutoff is None or index < seed_at:
                write(frames)
                if cutoff is not None:
                    live.apply_retention(cutoff)  # no replica yet: a serial advance
                continue
            level()
            state["replica"].apply_retention(cutoff)  # the worker's scan trims its own
            write(frames)
            live.apply_retention(cutoff)  # adopt
            if state["log"] is not None and not state["log"].trimmed(cutoff):
                state["log"] = None
        level()
        assert state["seeds"] >= 1
        assert list(state["replica"]) == list(live)


# ---------------------------------------------------------------------------
# Admission against the row-at-a-time reference
# ---------------------------------------------------------------------------

#: One counter row: the tick step from the row before (0 repeats a
#: timestamp, a negative step is a straggler) and what the raw value does
#: — grow by 0…9, restart from zero, or arrive NaN or negative.
_counter_row = st.tuples(
    st.integers(-3, 3),
    st.one_of(st.integers(0, 9), st.sampled_from(["restart", "nan", "negative"])),
)


def _counter_stream(rows):
    tick, running, stamps, values = 10, 0.0, [], []
    for step, change in rows:
        tick = max(0, tick + step)
        if change == "nan":
            value = math.nan
        elif change == "negative":
            value = -2.0
        else:
            running = 0.0 if change == "restart" else running + change
            value = running
        stamps.append(float(tick))
        values.append(value)
    return stamps, values


def _frame_bytes(frame):
    if frame is None:
        return None
    return frame.name, frame.timestamps.tobytes(), frame.values.tobytes()


def _admit_all(controller, frame):
    """Offer ``frame`` the way the ingest worker does: every judgement."""
    return [
        (consumed, held, _frame_bytes(admitted), _frame_bytes(released))
        for consumed, held, admitted, released in controller.admit([frame])
    ]


class TestAdmissionMatchesTheRowReference:
    """An orderly counter frame is held whole; a one-row frame takes that
    path too, so the row logic it replaces is held here as a reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(_counter_row, min_size=1, max_size=60),
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=10),
        drains=st.sets(st.integers(min_value=0, max_value=10), max_size=3),
        window=st.integers(min_value=1, max_value=4),
        metric=st.sampled_from(["requests", "gcpu"]),
    )
    def test_counter_streams_admit_bit_for_bit(self, rows, cuts, drains, window, metric):
        stamps, values = _counter_stream(rows)
        whole = SeriesFrame("c", {"metric": metric, "type": "counter"}, stamps, values)
        controller, reference = AdmissionController(0), ref.RowAdmission(0)
        edges = sorted({cut for cut in cuts if 0 < cut < len(whole)} | {0, len(whole)})
        with _reorder_window(window):
            for index, (a, b) in enumerate(zip(edges, edges[1:])):
                assert _admit_all(controller, whole[a:b]) == _admit_all(reference, whole[a:b])
                if index in drains:
                    assert [_frame_bytes(f) for f in controller.drain_pending()] == [
                        _frame_bytes(f) for f in reference.drain_pending()
                    ]
            assert [_frame_bytes(f) for f in controller.drain_pending()] == [
                _frame_bytes(f) for f in reference.drain_pending()
            ]
        assert controller.counters() == reference.counters()
        assert controller.quarantined_by_reason == reference.quarantined_by_reason
        assert controller.quarantine.reasons("c") == reference.quarantine.reasons("c")
        assert list(controller.quarantine._records) == list(reference.quarantine._records)


# ---------------------------------------------------------------------------
# The TSDB against arrival order: splits, flushes and interleaving are free
# ---------------------------------------------------------------------------


def _interleaved(rows, rng):
    """``rows`` re-interleaved across series at random, each series' rows
    kept in their order."""
    queues = {}
    for row in rows:
        queues.setdefault(row[0], deque()).append(row)
    names = [row[0] for row in rows]
    rng.shuffle(names)
    return [queues[name].popleft() for name in names]


def _columns(database):
    return {
        series.name: (series.timestamps.tolist(), series.values.tolist())
        for series in database
    }


_COUNTER_TAGS = {"metric": "requests", "type": "counter"}


class TestArrivalOrderIsWriteOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from("gd"), _stream_ts, _stream_value), min_size=1, max_size=60
        ),
        rng=st.randoms(use_true_random=False),
        cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=8),
        flushes=st.sets(st.integers(min_value=0, max_value=8), max_size=4),
    )
    def test_gauges_hold_the_last_finite_arrival(self, rows, rng, cuts, flushes):
        """Stragglers, repeats, NaN and negatives; any frame split, flush
        points and cross-series interleaving that keeps each series'
        order: per timestamp, the last finite arrival is stored (clamped
        to zero where the metric cannot go negative)."""
        latest = {}
        for name, timestamp, value in rows:
            if math.isfinite(value):
                if value < 0.0 and name == "g":
                    value = 0.0
                latest.setdefault(name, {})[timestamp] = value
        worker = _worker(BackpressurePolicy.BLOCK, capacity=1 << 16)
        with _reorder_window(3):
            _run(worker, _chunks(_samples(_interleaved(rows, rng)), cuts), flushes, by_row=False)
        assert _columns(worker.database) == {
            name: (sorted(points), [points[t] for t in sorted(points)])
            for name, points in latest.items()
        }

    @settings(max_examples=150, deadline=None)
    @given(
        streams=st.lists(
            st.lists(st.one_of(st.integers(0, 9), st.just("restart")), min_size=1, max_size=40),
            min_size=1,
            max_size=3,
        ),
        rng=st.randoms(use_true_random=False),
        cuts=st.lists(st.integers(min_value=1, max_value=119), max_size=8),
        flushes=st.sets(st.integers(min_value=0, max_value=8), max_size=4),
    )
    def test_in_order_counters_rebase_without_a_merge(self, streams, rng, cuts, flushes):
        """In-order counters with restarts, any flush points: the stored
        cumulative is the running-offset rebase, appended, never merged."""
        rows, expected = [], {}
        for index, changes in enumerate(streams):
            name, raw, last, offset = f"c{index}", 0.0, None, 0.0
            stamps, values = [], []
            for tick, change in enumerate(changes):
                raw = 0.0 if change == "restart" else raw + change
                if last is not None and raw < last:
                    offset += last
                last = raw
                stamps.append(tick * 60.0)
                values.append(raw + offset if offset else raw)
                rows.append((name, tick * 60.0, raw))
            expected[name] = (stamps, values)
        samples = [Sample(*row, _COUNTER_TAGS) for row in _interleaved(rows, rng)]
        worker = _worker(BackpressurePolicy.BLOCK, capacity=1 << 16)
        with _reorder_window(3), patch.object(
            TimeSeries, "_merge", autospec=True, side_effect=TimeSeries._merge
        ) as merge:
            _run(worker, _chunks(samples, cuts), flushes, by_row=False)
        assert merge.call_count == 0
        assert _columns(worker.database) == expected


# ---------------------------------------------------------------------------
# Through the service: the report set ignores splits and interleaving
# ---------------------------------------------------------------------------

_TICKS = 1_000
_ROUND = 200 * 60.0
_GCPU = [f"svc.sub{i}.gcpu" for i in range(3)]
_COUNTER = "svc.requests.count"


def _stepped_dirty_stream():
    """Three gCPU series, one stepped at tick 700, and a counter:
    reordered, NaN bursts and a rollover."""
    rng = np.random.default_rng(3)
    table = {name: rng.normal(0.001, 0.00002, _TICKS) for name in _GCPU}
    table[_GCPU[1]][700:] += 0.0003
    samples = []
    for tick in range(_TICKS):
        for name in _GCPU:
            samples.append(Sample(name, tick * 60.0, float(table[name][tick]), {"metric": "gcpu"}))
        samples.append(Sample(_COUNTER, tick * 60.0, float(7 * tick), _COUNTER_TAGS))
    spec = DirtyDataSpec(
        seed=5, reorder_block=12, nan_series=(_GCPU[0], _GCPU[1]), rollover_series=(_COUNTER,)
    )
    return dirty_stream(samples, spec)


_DIRTY = _stepped_dirty_stream()


def _report_set(n_shards, rng=None, pieces=1):
    """Reports of the stream in rounds; with ``rng`` each round is
    re-interleaved across series and offered in ``pieces`` calls."""
    sink = CollectingSink()
    service = StreamingDetectionService(
        n_shards=n_shards, sinks=[sink], queue_capacity=1 << 14,
        backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor(
        "gcpu",
        DetectionConfig(
            name="splits", threshold=0.00005, rerun_interval=6_000.0,
            windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
            long_term=False,
        ),
        series_filter={"metric": "gcpu"},
    )
    try:
        for end in np.arange(1, math.ceil(_TICKS * 60.0 / _ROUND) + 1) * _ROUND:
            batch = [s for s in _DIRTY if end - _ROUND <= s.timestamp < end]
            if rng is not None:
                rows = _interleaved([(s.name, s) for s in batch], rng)
                batch = [sample for _, sample in rows]
            cuts = sorted(rng.sample(range(1, len(batch)), pieces - 1)) if rng else []
            for chunk in _chunks(batch, cuts):
                service.ingest_many(chunk)
            service.advance_to(float(end))
    finally:
        service.close()
    return tuple(sorted(json.dumps(report.to_dict(), sort_keys=True) for report in sink.reports))


@functools.lru_cache(maxsize=None)
def _reference_report_set(n_shards):
    """The stream's reports when each round is offered as it came."""
    return _report_set(n_shards)


class TestReportsIgnoreSplitsAndInterleaving:
    @pytest.mark.parametrize("n_shards", [1, 4])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), pieces=st.integers(1, 8))
    def test_report_set_is_invariant(self, n_shards, seed, pieces):
        reference = _reference_report_set(n_shards)
        assert len(reference) == 1  # the step, and nothing else
        assert _report_set(n_shards, random.Random(seed), pieces) == reference
