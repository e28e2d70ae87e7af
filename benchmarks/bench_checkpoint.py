"""Checkpoint bytes and seconds per series, regular and jittered.

A shard checkpoint pickles every series' two ``float64`` columns.  A
timestamp column at a regular cadence is an exact arithmetic
progression and pickles as ``(first, step, n)``, so a regular series
costs about the 8 bytes a point of its values; a series whose
timestamps jitter pickles both columns, 16 bytes a point.  This puts
bytes per series, save seconds and restore seconds on record for both
kinds — 2,000 regular and 200 jittered series of 1,650 points (the
end-to-end benchmark's preload plus 30 rounds) over four shards — and
asserts that the restore is byte-equal and the bytes per point stay
under those two costs plus a small per-series overhead.

Nothing here is a gate on time: the seconds are printed, not bounded.
"""

import time

import numpy as np

from _harness import emit
from repro.service import StreamingDetectionService
from repro.tsdb import SeriesFrame

N_SHARDS = 4
N_POINTS = 1_650
INTERVAL = 60.0
#: Bytes a point may cost, checkpoint overhead included.
MAX_BYTES_PER_POINT = {"regular": 8.6, "jittered": 16.6}


def _frames(kind, n_series, rng):
    stamps = np.arange(N_POINTS) * INTERVAL
    frames = []
    for index in range(n_series):
        ts = stamps
        if kind == "jittered":
            ts = stamps + rng.uniform(0.0, 1.0, N_POINTS)
        values = rng.normal(0.001, 0.00002, N_POINTS)
        frames.append(SeriesFrame(f"{kind}{index % 20}.sub{index}.gcpu", {"metric": "gcpu"},
                                  ts, values))
    return frames


def _column_bytes(service):
    return {
        (shard_id, series.name): (series.timestamps.tobytes(), series.values.tobytes())
        for shard_id in range(N_SHARDS)
        for series in service.shard_database(shard_id)
    }


def test_checkpoint_bytes_per_series(tmp_path):
    rng = np.random.default_rng(2024)
    rows = ["kind      series  bytes/series  bytes/point  save s  restore s"]
    for kind, n_series in (("regular", 2_000), ("jittered", 200)):
        service = StreamingDetectionService(n_shards=N_SHARDS)
        assert service.ingest_frames(_frames(kind, n_series, rng)) == n_series * N_POINTS
        service.flush()
        directory = str(tmp_path / kind)
        started = time.perf_counter()
        service.checkpoint(directory)
        save_s = time.perf_counter() - started
        blob_bytes = sum(entry.stat().st_size for entry in (tmp_path / kind).glob("shard-*.pkl"))
        started = time.perf_counter()
        restored = StreamingDetectionService.restore(directory)
        restore_s = time.perf_counter() - started
        try:
            assert _column_bytes(restored) == _column_bytes(service)
        finally:
            restored.close()
            service.close()
        per_point = blob_bytes / (n_series * N_POINTS)
        rows.append(
            f"{kind:8s}  {n_series:6d}  {blob_bytes / n_series:12,.0f}  {per_point:11.2f}"
            f"  {save_s:6.3f}  {restore_s:9.3f}"
        )
        assert per_point <= MAX_BYTES_PER_POINT[kind], (kind, per_point)
    emit(f"Checkpoint cost per series ({N_SHARDS} shards, {N_POINTS} points a series)", rows)
