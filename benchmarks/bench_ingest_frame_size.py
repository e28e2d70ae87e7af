"""Ingest cost per sample by frame size.

The unit of ingest is a per-series frame; the scalar ``ingest()`` is a
one-row frame.  The cost per sample of both — route, queue, admission
and TSDB append — is put on record for the same clean in-order stream
offered as 25-row frames (the e2e benchmark's round) and as one-row
frames, and the frame path must be the cheaper one.  The same path
layer by layer is the end-to-end benchmark's traced run
(``service.ingest.*``, ``quality.admission.*``, ``tsdb.write_batch_*``).

A second row puts the unit of a *call* on record: the same 64 series x
25 rows a round, offered as one ``ingest_frames`` call per round —
each shard reached once, its frames judged in one array pass — and as
one call per frame; the batched call must be the cheaper one.

A third row offers a dirty stream built with the ``repro.fleet.dirty``
transforms — half the series gauges reordered within 8-row blocks, half
counters rolled over and kept in order, NaN bursts on both — and puts
ns/sample through offer and through flush on record.  It asserts only
counts that cannot flake: the in-order counters never take the TSDB's
backfill merge, and the TSDB ends byte-equal to the clean stream's.

A fourth row is the wire ahead of all of that: a remote-write POST in
the end-to-end benchmark's ``steady_wire`` body shape (80 series x 25
samples, prompb-shaped JSON), decoded and parsed the way the receiver
does it (orjson, one column pair per POST) and the way it did before
(``json.loads``, one column pair per series — the reference in
``tests/_reference_kernels.py``).  It prints ms per POST for each step
and asserts only that both readings give equal frames.
"""

import json
import os
import sys
import time

import numpy as np
import orjson

from _harness import emit
from repro.connectors import SeriesMapper, parse_remote_write
from repro.fleet.dirty import inject_nan_bursts, reorder_within_blocks, rollover_counter
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.tsdb import SeriesFrame, TimeSeries

# The receiver's parse before orjson lives with the tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
import _reference_kernels as ref  # noqa: E402

N_SERIES = 64
INTERVAL = 60.0
SERIES = [f"svc.sub{i}.gcpu" for i in range(N_SERIES)]

FRAME_ROWS = 25        # the e2e benchmark's points per series per round
FRAME_ROUNDS = 20


def _service():
    return StreamingDetectionService(
        n_shards=4, queue_capacity=1 << 20,
        backpressure=BackpressurePolicy.BLOCK, batch_size=4_096,
    )


def test_frame_size_cost(capsys):
    """ns/sample through route + queue + admission + TSDB append, for the
    same clean stream offered as 25-row frames and as one-row frames."""
    rounds = [
        [
            Sample(name, (r * FRAME_ROWS + k) * INTERVAL, 0.001, {"metric": "gcpu"})
            for k in range(FRAME_ROWS)
            for name in SERIES
        ]
        for r in range(FRAME_ROUNDS)
    ]
    n_samples = FRAME_ROUNDS * FRAME_ROWS * N_SERIES

    def feed_frames(service, batch):
        return service.ingest_many(batch)

    def feed_rows(service, batch):
        return sum(service.ingest_sample(sample) for sample in batch)

    rows = ["frame rows  samples  ns/sample"]
    cost = {}
    for label, feed in ((FRAME_ROWS, feed_frames), (1, feed_rows)):
        best = float("inf")
        for _ in range(3):  # best-of-3: the path's cost, not scheduler jitter
            service = _service()
            started = time.perf_counter()
            accepted = sum(feed(service, batch) for batch in rounds)
            flushed = service.flush()
            best = min(best, time.perf_counter() - started)
            assert accepted == flushed == n_samples
        cost[label] = best / n_samples * 1e9
        rows.append(f"{label:10d}  {n_samples:7d}  {cost[label]:9.0f}")
    rows.append(f"one-row frames cost {cost[1] / cost[FRAME_ROWS]:.1f}x per sample")
    emit("Ingest cost by frame size (clean in-order stream, 4 shards)", rows)
    assert cost[FRAME_ROWS] < cost[1]


def test_batched_call_cost(capsys):
    """ns/sample through route + queue + admission + TSDB append, for the
    same 25-row frames offered as one call per round and one per frame."""
    rounds = [
        [
            SeriesFrame(
                name, {"metric": "gcpu"},
                [(r * FRAME_ROWS + k) * INTERVAL for k in range(FRAME_ROWS)],
                [0.001] * FRAME_ROWS,
            )
            for name in SERIES
        ]
        for r in range(FRAME_ROUNDS)
    ]
    n_samples = FRAME_ROUNDS * FRAME_ROWS * N_SERIES

    def per_round(service, frames):
        return service.ingest_frames(frames)

    def per_frame(service, frames):
        return sum(service.ingest_frames([frame]) for frame in frames)

    rows = ["calls             samples  ns/sample"]
    cost = {}
    for label, feed in (("one per round", per_round), ("one per frame", per_frame)):
        best = float("inf")
        for _ in range(3):  # best-of-3, as above
            service = _service()
            started = time.perf_counter()
            accepted = sum(feed(service, frames) for frames in rounds)
            flushed = service.flush()
            best = min(best, time.perf_counter() - started)
            assert accepted == flushed == n_samples
        cost[label] = best / n_samples * 1e9
        rows.append(f"{label:16s}  {n_samples:7d}  {cost[label]:9.0f}")
    rows.append(
        f"one call per frame costs {cost['one per frame'] / cost['one per round']:.1f}x per sample"
    )
    emit(f"Ingest cost by call ({N_SERIES} series x {FRAME_ROWS} rows a round, 4 shards)", rows)
    assert cost["one per round"] < cost["one per frame"]


def _streams():
    """Per series, the clean points and the dirty delivery of them."""
    clean, dirty = [], []
    for i in range(N_SERIES):
        ticks = range(FRAME_ROUNDS * FRAME_ROWS)
        if i % 2:  # integer cumulative counters: the rebase is bit-exact
            name, tags = f"svc.route{i}.requests_total", {"metric": "requests", "type": "counter"}
            stream = [Sample(name, k * INTERVAL, float(7 * (k + 1) + i), tags) for k in ticks]
            damaged = rollover_counter(stream, name)
        else:
            name, tags = SERIES[i], {"metric": "gcpu"}
            stream = [Sample(name, k * INTERVAL, 0.001 * (1 + k % 7 / 100), tags) for k in ticks]
            damaged = reorder_within_blocks(stream, block=8, seed=i)
        clean.append(stream)
        dirty.append(inject_nan_bursts(damaged, [name], seed=i))
    return clean, dirty


def _rounds(streams):
    """Each series cut into ``FRAME_ROUNDS`` runs, interleaved position
    by position per round — the order a collector fan-in delivers."""
    rounds = []
    for r in range(FRAME_ROUNDS):
        runs = [s[len(s) * r // FRAME_ROUNDS : len(s) * (r + 1) // FRAME_ROUNDS] for s in streams]
        depth = max(len(run) for run in runs)
        rounds.append([run[k] for k in range(depth) for run in runs if k < len(run)])
    return rounds


def _columns(service):
    return {
        series.name: (series._timestamps.view().tobytes(), series._values.view().tobytes())
        for shard in range(service.n_shards)
        for series in service.shard_database(shard)
    }


def test_dirty_stream_cost(monkeypatch):
    """ns/sample through offer and through flush for a dirty stream, one
    flush a round; the in-order counter half is never merged."""
    clean, dirty = _streams()
    reference = _service()
    for batch in _rounds(clean):
        reference.ingest_many(batch)
        reference.flush()

    merged = []
    merge = TimeSeries._merge

    def counting(series, ts, vals):
        merged.append(series.name)
        merge(series, ts, vals)

    monkeypatch.setattr(TimeSeries, "_merge", counting)
    rounds = _rounds(dirty)
    n_samples = sum(len(batch) for batch in rounds)
    best = (float("inf"), float("inf"))
    for _ in range(3):  # best-of-3, as above
        service = _service()
        merged.clear()
        offer = flush = 0.0
        for batch in rounds:
            started = time.perf_counter()
            service.ingest_many(batch)
            offered = time.perf_counter()
            service.flush()
            offer, flush = offer + offered - started, flush + time.perf_counter() - offered
        best = min(best, (offer, flush), key=sum)
        assert _columns(service) == _columns(reference)
    counter_merges = sum(name.endswith("requests_total") for name in merged)
    offer_ns, flush_ns = (part / n_samples * 1e9 for part in best)
    emit(
        "Dirty stream: half gauges reordered in 8-row blocks, half counters "
        "rolled over in order, NaN bursts on both (4 shards, a flush a round)",
        [
            "samples  offer ns/sample  flush ns/sample  merges (gauges / counters)",
            f"{n_samples:7d}  {offer_ns:15.0f}  {flush_ns:15.0f}  "
            f"{len(merged) - counter_merges} / {counter_merges}",
            "TSDB bytes equal the clean stream's",
        ],
    )
    assert counter_merges == 0


POST_SERIES = 80       # the e2e benchmark's series per POST
POST_REPEATS = 30      # best-of-N per step


def _post_body():
    """One POST in ``steady_wire``'s shape: gCPU-scale values, ms stamps."""
    rng = np.random.default_rng(5)
    base = rng.uniform(5e-4, 2e-3, POST_SERIES)
    values = rng.normal(base[:, None], 0.02 * base[:, None], (POST_SERIES, FRAME_ROWS)).tolist()
    stamps = [int((1_000 + k) * INTERVAL * 1000) for k in range(FRAME_ROWS)]
    return json.dumps({"timeseries": [
        {
            "labels": [
                {"name": "__name__", "value": "gcpu"},
                {"name": "service", "value": f"svc{i % 20}"},
                {"name": "subroutine", "value": f"sub{i}"},
            ],
            "samples": [{"value": v, "timestamp": t} for v, t in zip(values[i], stamps)],
        }
        for i in range(POST_SERIES)
    ]}).encode("utf-8")


def _best_ms(step, argument):
    best = float("inf")
    for _ in range(POST_REPEATS):
        started = time.perf_counter()
        step(argument)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def test_remote_write_post_cost():
    """ms per POST to decode and to parse a steady_wire body, the
    receiver's way and the reference's; the frames must be equal."""
    body = _post_body()
    mapper = SeriesMapper(source="remote_write")
    frames = parse_remote_write(orjson.loads(body), mapper)
    want = ref.remote_write_frames(body, mapper)
    assert [(f.name, f.tags) for f in frames] == [(f.name, f.tags) for f in want]
    for got, expected in zip(frames, want):
        assert got.timestamps.tobytes() == expected.timestamps.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()

    payload = json.loads(body)
    rows = ["reading                               decode ms  parse ms"]
    for label, decode, parse in (
        ("json.loads + a column pair per series", lambda b: json.loads(b.decode("utf-8")),
         ref.parse_remote_write),
        ("orjson + one column pair per POST", orjson.loads, parse_remote_write),
    ):
        decode_ms = _best_ms(decode, body)
        parse_ms = _best_ms(lambda p: parse(p, mapper), payload)
        rows.append(f"{label:36s}  {decode_ms:9.2f}  {parse_ms:8.2f}")
    emit(
        f"Remote-write POST ({POST_SERIES} series x {FRAME_ROWS} samples, "
        f"{len(body) / 1024:.0f} KiB), best of {POST_REPEATS}",
        rows,
    )
