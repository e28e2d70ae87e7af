"""Ingest cost per sample by frame size.

The unit of ingest is a per-series frame; the scalar ``ingest()`` is a
one-row frame.  The cost per sample of both — route, queue, admission
and TSDB append — is put on record for the same clean in-order stream
offered as 25-row frames (the e2e benchmark's round) and as one-row
frames, and the frame path must be the cheaper one.  The same path
layer by layer is the end-to-end benchmark's traced run
(``service.ingest.*``, ``quality.admission.*``, ``tsdb.write_batch_*``).
"""

import time

from _harness import emit
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService

N_SERIES = 64
INTERVAL = 60.0
SERIES = [f"svc.sub{i}.gcpu" for i in range(N_SERIES)]

FRAME_ROWS = 25        # the e2e benchmark's points per series per round
FRAME_ROUNDS = 20


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
            service = StreamingDetectionService(
                n_shards=4, queue_capacity=1 << 20,
                backpressure=BackpressurePolicy.BLOCK, batch_size=4_096,
            )
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
