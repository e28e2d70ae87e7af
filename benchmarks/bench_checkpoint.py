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

A third row, "regular, monitored", checkpoints the regular series again
with the end-to-end benchmark's monitor registered and one advance run,
so the blob also holds the monitor's configuration and scan state.  Every
row prints the bytes per series of everything in the blob that is not a
column: for the monitored row, mostly that scan state.

Nothing here is a gate on time: the seconds are printed, not bounded.
"""

import pickle
import time

import numpy as np

from _harness import emit
from repro.config import DetectionConfig
from repro.service import StreamingDetectionService
from repro.tsdb import SeriesFrame, WindowSpec

N_SHARDS = 4
N_POINTS = 1_650
INTERVAL = 60.0
#: Bytes a point may cost, checkpoint overhead included.
MAX_BYTES_PER_POINT = {"regular": 8.6, "jittered": 16.6}
#: The end-to-end benchmark's monitor configuration.
MONITOR = DetectionConfig(
    name="e2e", threshold=5e-5, rerun_interval=25 * INTERVAL, long_term=False,
    windows=WindowSpec(historic=36000, analysis=12000, extended=6000),
)


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


def _pickled_column_bytes(service):
    """What every series' two columns pickle to, in one pickle."""
    columns = [
        column
        for shard_id in range(N_SHARDS)
        for series in service.shard_database(shard_id)
        for column in (series._timestamps, series._values)
    ]
    return len(pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL))


def test_checkpoint_bytes_per_series(tmp_path):
    rng = np.random.default_rng(2024)
    frames = {kind: _frames(kind, n_series, rng) for kind, n_series in (("regular", 2_000),
                                                                         ("jittered", 200))}
    rows = [
        "kind                series  bytes/series  bytes/point  not columns/series"
        "  save s  restore s"
    ]
    for row, kind in (
        ("regular", "regular"), ("jittered", "jittered"), ("regular, monitored", "regular")
    ):
        n_series, monitored = len(frames[kind]), row != kind
        service = StreamingDetectionService(n_shards=N_SHARDS)
        if monitored:
            service.register_monitor(
                "e2e", MONITOR, series_filter={"metric": "gcpu"}, first_run=N_POINTS * INTERVAL
            )
        assert service.ingest_frames(frames[kind]) == n_series * N_POINTS
        service.flush()
        if monitored:
            service.advance_to(N_POINTS * INTERVAL)
            assert service.stats().scans == N_SHARDS
        directory = tmp_path / row.replace(", ", "_")
        started = time.perf_counter()
        service.checkpoint(str(directory))
        save_s = time.perf_counter() - started
        blob_bytes = sum(entry.stat().st_size for entry in directory.glob("shard-*.pkl"))
        other_bytes = blob_bytes - _pickled_column_bytes(service)
        started = time.perf_counter()
        restored = StreamingDetectionService.restore(str(directory))
        restore_s = time.perf_counter() - started
        try:
            assert _column_bytes(restored) == _column_bytes(service)
        finally:
            restored.close()
            service.close()
        per_point = blob_bytes / (n_series * N_POINTS)
        rows.append(
            f"{row:18s}  {n_series:6d}  {blob_bytes / n_series:12,.0f}  {per_point:11.2f}"
            f"  {other_bytes / n_series:18,.0f}  {save_s:6.3f}  {restore_s:9.3f}"
        )
        if not monitored:
            assert per_point <= MAX_BYTES_PER_POINT[kind], (kind, per_point)
    emit(f"Checkpoint cost per series ({N_SHARDS} shards, {N_POINTS} points a series)", rows)
