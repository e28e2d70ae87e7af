"""Batch-scan throughput: vectorized screens vs the seed per-series loop.

The columnar refactor's headline claim: a shard advance screens
thousands of series as a few ``(k, n)`` array ops
(:meth:`~repro.core.incremental.IncrementalScanCache.screen_batch`)
instead of the seed's per-series, per-point Python fold.  This bench
measures both paths over the same fleet — quiet series at the service's
own cadence (100 new points per advance = rerun interval / tick) — and
asserts:

- every per-series decision (scan / skip) and screen latch state is
  identical between the two paths;
- the batch path is at least **10x** faster at 10k series.  The screen
  inside a running service is the end-to-end benchmark's
  ``core.incremental.screen_us_per_series`` row.

Two more rows time what a round's full scans became: the re-anchor round
as one matrix pass, and went-away over a block's candidates as one row
pass.

The seed path here is a faithful reimplementation of the pre-refactor
hot loop: list-backed tail reads converted per scan, and Page's CUSUM
advanced one float at a time per series.

Usage::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_scan_batch.py
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

import numpy as np

from _harness import emit

from repro.config import DetectionConfig
from repro.core import pipeline as pipeline_module
from repro.core.change_point import ChangePointDetector
from repro.core.incremental import SCREEN_DRIFT, SCREEN_THRESHOLD, IncrementalScanCache
from repro.core.pipeline import DetectionPipeline
from repro.core.went_away import WentAwayDetector
from repro.tsdb import TimeSeries, TimeSeriesDatabase, WindowSpec

# The per-series detector the matrix pass replaced lives with the tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
import _reference_kernels as ref  # noqa: E402

N_SERIES = 10_000
INTERVAL = 60.0
HIST_POINTS = 200       # anchored history per series
ANALYSIS_POINTS = 100   # reference window for the screen anchor
NEW_POINTS = 100        # points per advance = rerun interval / tick
MAX_STALENESS = 12_000.0
SPEEDUP_FLOOR = 10.0
REPS = 4                # best-of-N: skims first-touch page-fault noise


class SeedScreen:
    """The seed's scalar Page CUSUM (pre-vectorization), one float at a time."""

    __slots__ = ("mean", "std", "drift", "threshold", "pos", "neg", "fired", "n")

    def __init__(self, state, drift, threshold):
        self.mean = state["mean"]
        self.std = state["std"]
        self.drift = drift
        self.threshold = threshold
        self.pos = state["pos"]
        self.neg = state["neg"]
        self.fired = state["fired"]
        self.n = state["n"]

    def update(self, value):
        self.n += 1
        if self.fired:
            return True
        if self.std <= 0.0:
            if value != self.mean:
                self.fired = True
            return self.fired
        z = (value - self.mean) / self.std
        self.pos = max(0.0, self.pos + z - self.drift)
        self.neg = max(0.0, self.neg - z - self.drift)
        if self.pos >= self.threshold or self.neg >= self.threshold:
            self.fired = True
        return self.fired

    def update_many(self, values):
        for value in np.asarray(values, dtype=float):
            if self.update(float(value)):
                break
        return self.fired


class SeedAnchor:
    """The seed's per-series cache entry over list-backed storage."""

    __slots__ = ("values", "anchor_len", "full_scan_at", "had_candidate", "screen")

    def __init__(self, values, anchor_len, full_scan_at, had_candidate, screen):
        self.values = values              # plain Python list (seed storage)
        self.anchor_len = anchor_len
        self.full_scan_at = full_scan_at
        self.had_candidate = had_candidate
        self.screen = screen

    def should_scan(self, now, max_staleness):
        # Seed tail read: list slice -> fresh numpy array, every scan.
        new_values = np.asarray(self.values[self.anchor_len:], dtype=float)
        if new_values.size:
            self.screen.update_many(new_values)
            self.anchor_len = len(self.values)
        if (
            self.had_candidate
            or self.screen.fired
            or (now - self.full_scan_at) >= max_staleness
        ):
            return True
        return False


def build_fleet(n_series, rng=None):
    """Anchored quiet fleet + the seed path's mirrored state.

    Returns ``(cache, series_list, seed_anchors, now)`` where the cache
    holds an anchor per series, each series has ``NEW_POINTS`` unscreened
    points, and ``seed_anchors`` mirrors the exact same screen state over
    list-backed storage for the reference measurement.
    """
    rng = rng or np.random.default_rng(42)
    values = rng.normal(0.001, 0.00002, (n_series, HIST_POINTS + NEW_POINTS))
    anchor_time = HIST_POINTS * INTERVAL
    now = (HIST_POINTS + NEW_POINTS) * INTERVAL
    timestamps = np.arange(HIST_POINTS + NEW_POINTS, dtype=float) * INTERVAL

    cache = IncrementalScanCache(max_staleness=MAX_STALENESS)
    series_list = []
    seed_anchors = []
    for i in range(n_series):
        series = TimeSeries(name=f"fleet.sub{i}.gcpu")
        series.ingest_many(list(zip(timestamps[:HIST_POINTS], values[i, :HIST_POINTS])))
        cache.record_full_scan(
            series, anchor_time, values[i, HIST_POINTS - ANALYSIS_POINTS:HIST_POINTS],
            had_candidate=False,
        )
        series.ingest_many(list(zip(timestamps[HIST_POINTS:], values[i, HIST_POINTS:])))
        series_list.append(series)
        seed_anchors.append(
            SeedAnchor(
                values=values[i].tolist(),
                anchor_len=HIST_POINTS,
                full_scan_at=anchor_time,
                had_candidate=False,
                screen=SeedScreen(
                    cache.screen_state(series.name), SCREEN_DRIFT, SCREEN_THRESHOLD
                ),
            )
        )
    return cache, series_list, seed_anchors, now


def measure_batch_scan(n_series=N_SERIES):
    """Time seed vs batch screening over ``n_series``; returns a payload.

    Both paths see identical data and identical starting screen state;
    decisions and latch flags are asserted equal before any number is
    reported, so the speedup can never come from diverging behavior.
    Each path is timed ``REPS`` times (screening mutates screen state,
    so later reps restore a pristine snapshot first) and the best rep
    counts — the usual guard against first-touch page faults and
    allocator warm-up landing on one side of the comparison.
    """
    cache, series_list, seed_anchors, now = build_fleet(n_series)
    points = n_series * NEW_POINTS
    # Cheap state restore between reps: the cache snapshots through its
    # pickle protocol (compact column copies, no serialization), and the
    # seed anchors reset to the fresh-anchor state build_fleet left them
    # in (zero evidence, anchored at HIST_POINTS).
    cache_snapshot = cache.__getstate__()

    def reset_seed():
        for anchor in seed_anchors:
            anchor.anchor_len = HIST_POINTS
            screen = anchor.screen
            screen.pos = 0.0
            screen.neg = 0.0
            screen.fired = False
            screen.n = 0

    seed_elapsed = float("inf")
    batch_elapsed = float("inf")
    speedup = 0.0
    # Each rep times both paths back to back and contributes one ratio,
    # so a machine-wide slowdown lands on both sides of that ratio
    # instead of skewing one of them; the best matched-conditions rep
    # counts.  Screening mutates state, so each rep starts from a
    # restored snapshot.
    for rep in range(REPS):
        if rep:
            reset_seed()
        started = time.perf_counter()
        seed_decisions = [
            anchor.should_scan(now, MAX_STALENESS) for anchor in seed_anchors
        ]
        rep_seed = time.perf_counter() - started
        seed_elapsed = min(seed_elapsed, rep_seed)

        if rep:
            cache.__setstate__(cache_snapshot)
        started = time.perf_counter()
        batch_decisions = cache.screen_batch(series_list, now)
        rep_batch = time.perf_counter() - started
        batch_elapsed = min(batch_elapsed, rep_batch)
        speedup = max(speedup, rep_seed / rep_batch)

    for series, anchor, seed_decision in zip(series_list, seed_anchors, seed_decisions):
        assert batch_decisions[series.name] == seed_decision, series.name
        assert cache.screen_state(series.name)["fired"] == anchor.screen.fired
    return {
        "n_series": n_series,
        "new_points": NEW_POINTS,
        "seed_points_per_s": points / seed_elapsed,
        "batch_points_per_s": points / batch_elapsed,
        "speedup": speedup,
        "scans_forced": sum(seed_decisions),
    }


def test_batch_screen_speedup_at_10k_series(capsys):
    result = measure_batch_scan(N_SERIES)
    rows = [
        "path   series  new/series  points/s     elapsed-relative",
        (
            f"seed   {result['n_series']:6d}  {result['new_points']:10d}  "
            f"{result['seed_points_per_s'] / 1e6:9.2f}M  1.0x"
        ),
        (
            f"batch  {result['n_series']:6d}  {result['new_points']:10d}  "
            f"{result['batch_points_per_s'] / 1e6:9.2f}M  "
            f"{result['speedup']:.1f}x"
        ),
        f"scans forced by screens: {result['scans_forced']}",
    ]
    emit("Batch screening vs seed per-series loop (quiet fleet)", rows)
    assert result["speedup"] >= SPEEDUP_FLOOR


def test_batch_matches_sequential_on_shifted_fleet():
    """Decision equality must also hold when screens actually fire."""
    rng = np.random.default_rng(7)
    cache, series_list, seed_anchors, now = build_fleet(512, rng=rng)
    # Shift a deterministic subset hard enough to latch their screens.
    for i in range(0, 512, 8):
        series = series_list[i]
        tail = np.asarray(series.values)
        shifted = tail[-NEW_POINTS:] + 0.0005
        base = len(series) - NEW_POINTS
        for offset, value in enumerate(shifted):
            series._values.set(base + offset, float(value))
            seed_anchors[i].values[base + offset] = float(value)
    batch_decisions = cache.screen_batch(series_list, now)
    fired = 0
    for series, anchor in zip(series_list, seed_anchors):
        seed_decision = anchor.should_scan(now, MAX_STALENESS)
        assert batch_decisions[series.name] == seed_decision, series.name
        fired += int(cache.screen_state(series.name)["fired"])
    assert fired >= 512 // 8  # every shifted series latched


# ---------------------------------------------------------------------------
# The re-anchor round: every anchor stale, so every series is a full scan
# ---------------------------------------------------------------------------

REANCHOR_POINTS = 600      # per series; windows are 200 historic + 200 analysis + 200 extended
REANCHOR_SPEEDUP_FLOOR = 3.0
#: Peak traced allocation of the timed run over what it returns: a block
#: of window snapshots and kernel temporaries, the decisions, the series
#: list — at 10k series and at 2.5k alike.
REANCHOR_SCRATCH_BYTES = 4 * 1024 * 1024


def measure_reanchor(n_series=N_SERIES, per_series=False, trace_memory=False):
    """Anchor a quiet fleet, then time the one run, an analysis window
    later, that must re-anchor every series.

    The first run's ``now`` is past every series' last sample, so its
    anchors hold the whole series; the timed run, an analysis window
    later, finds nothing stamped before its ``now`` to fold (its extended
    window is empty) and every anchor stale: it is full scans only.
    ``per_series`` runs the loop the matrix pass replaced through the
    same pipeline: one series a block, the reference ``detect`` a row.
    Went-away and seasonality are off on both sides: one window in ten of
    pure noise passes the LRT, and what the filters then cost a candidate
    is the same on either path and another bench's subject
    (``bench_fig7_went_away.py``); the threshold stage drops them instead.
    Returns ``(seconds, candidates, anchors, scratch_bytes)``.
    """
    rng = np.random.default_rng(24)
    values = rng.normal(0.001, 0.00002, (n_series, REANCHOR_POINTS))
    stamps = np.arange(REANCHOR_POINTS, dtype=float) * INTERVAL
    database = TimeSeriesDatabase()
    for i in range(n_series):
        series = database.create(f"fleet.sub{i}.gcpu", {"metric": "gcpu"})
        series.ingest_many(list(zip(stamps, values[i])))
    config = DetectionConfig(
        name="reanchor", threshold=5e-5, rerun_interval=200 * INTERVAL,
        windows=WindowSpec(
            historic=200 * INTERVAL, analysis=200 * INTERVAL, extended=200 * INTERVAL
        ),
        long_term=False,
    )
    kernel, block = ChangePointDetector.detect_rows, pipeline_module.SCAN_BLOCK_ROWS
    if per_series:
        ChangePointDetector.detect_rows = ref.detect_rows
        pipeline_module.SCAN_BLOCK_ROWS = 1
    try:
        pipeline = DetectionPipeline(
            config, incremental=True, enable_went_away=False, enable_seasonality=False
        )
        state = pipeline.new_state()
        pipeline.run(database, REANCHOR_POINTS * INTERVAL, state=state)
        if trace_memory:
            tracemalloc.start()
        started = time.perf_counter()
        result = pipeline.run(database, (REANCHOR_POINTS + 200) * INTERVAL, state=state)
        seconds = time.perf_counter() - started
        kept, peak = 0, 0
        if trace_memory:
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    finally:
        ChangePointDetector.detect_rows, pipeline_module.SCAN_BLOCK_ROWS = kernel, block
    counts = result.trace.counts
    assert counts["pipeline.full_scan.rows"] == n_series  # every anchor was stale
    assert "pipeline.incremental.hits" not in counts
    cache = state.cache
    candidates = [
        (c.context.metric_id, c.change_index, c.mean_before, c.mean_after)
        for c in result.all_candidates
    ]
    return seconds, candidates, [cache.screen_state(s.name) for s in database], peak - kept


def test_reanchor_round_is_one_matrix_pass(capsys):
    loop_s, loop_found, loop_anchors, _ = measure_reanchor(per_series=True)
    pass_s, found, anchors, _ = measure_reanchor()
    assert found == loop_found and anchors == loop_anchors
    # Traced runs are not timed: tracemalloc taxes every allocation.
    scratch = measure_reanchor(trace_memory=True)[3]
    quarter = measure_reanchor(N_SERIES // 4, trace_memory=True)[3]
    emit(
        "Re-anchor round: every anchor stale, one DetectionPipeline.run",
        [
            "path        series  full scans/s  elapsed-relative",
            f"per-series  {N_SERIES:6d}  {N_SERIES / loop_s:12.0f}  1.0x",
            f"matrix      {N_SERIES:6d}  {N_SERIES / pass_s:12.0f}  {loop_s / pass_s:.1f}x",
            f"candidates: {len(found)} of {N_SERIES} (equal on both paths, anchors too)",
            (
                f"peak scratch: {scratch / 2**20:.1f} MiB at {N_SERIES} series, "
                f"{quarter / 2**20:.1f} MiB at {N_SERIES // 4}"
            ),
        ],
    )
    assert loop_s / pass_s >= REANCHOR_SPEEDUP_FLOOR
    assert scratch <= REANCHOR_SCRATCH_BYTES


# ---------------------------------------------------------------------------
# Went-away over a block's candidates: one row pass
# ---------------------------------------------------------------------------

#: The end-to-end workloads' windows at their 60 s cadence: 600 historic,
#: 200 analysis and 100 extended points.
WENT_AWAY_SHAPE = (600, 200, 100)
WENT_AWAY_CANDIDATES = 200
WENT_AWAY_BLOCK = 20  # a storm_scan block holds 19 candidates on average
WENT_AWAY_FLOOR = 1.6


def went_away_candidates(n=WENT_AWAY_CANDIDATES, seed=27):
    """Oriented windows of change-point candidates, split at the change:
    steps that last, transients that recover, ramps and plain noise."""
    rng = np.random.default_rng(seed)
    nh, na, ne = WENT_AWAY_SHAPE
    rows = 0.001 + 0.00002 * rng.normal(0, 1, (n, nh + na + ne))
    at = rng.integers(10, na - 10, n)
    for i, kind in enumerate(rng.integers(0, 4, n)):
        start = nh + at[i]
        if kind == 0:
            rows[i, start:] += 0.0003
        elif kind == 1:
            rows[i, start : start + 40] += 0.0003
        elif kind == 2:
            rows[i, nh:] += 0.000002 * np.arange(na + ne)
    return rows[:, :nh], rows[:, nh : nh + na], rows[:, nh + na :], at


def measure_went_away():
    """µs per candidate: the per-candidate reference loop, and the row
    pass over blocks of one and of ``WENT_AWAY_BLOCK`` candidates.

    Every row's four terms are asserted equal to the reference first; the
    three paths are then timed back to back per rep, best rep counting.
    """
    detector = WentAwayDetector()
    historic, analysis, extended, at = went_away_candidates()
    n = len(at)
    expected = [
        ref.went_away_terms(historic[i], analysis[i], extended[i], at[i])
        for i in range(n)
    ]
    got = detector.diagnose_rows(historic, analysis, extended, at)
    assert [
        (d.new_pattern, d.significant_regression, d.lasting_trend, d.gone_away) for d in got
    ] == expected

    def loop():
        for i in range(n):
            ref.went_away_terms(historic[i], analysis[i], extended[i], at[i])

    def rows(block):
        def run():
            for lo in range(0, n, block):
                part = slice(lo, lo + block)
                detector.diagnose_rows(historic[part], analysis[part], extended[part], at[part])

        return run

    best = {}
    for _ in range(REPS):
        for name, run in (("reference", loop), ("k=1", rows(1)), ("k=block", rows(WENT_AWAY_BLOCK))):
            started = time.perf_counter()
            run()
            elapsed = (time.perf_counter() - started) / n * 1e6
            best[name] = min(best.get(name, float("inf")), elapsed)
    return best


def test_went_away_is_a_row_pass(capsys):
    us = measure_went_away()
    emit(
        "Went-away: one row pass per block vs the per-candidate reference loop",
        [
            "path                      us/candidate  speedup",
            f"reference loop            {us['reference']:12.0f}  1.0x",
            f"row pass, k = 1           {us['k=1']:12.0f}  {us['reference'] / us['k=1']:.1f}x",
            (
                f"row pass, k = {WENT_AWAY_BLOCK:<11d} {us['k=block']:12.0f}  "
                f"{us['reference'] / us['k=block']:.1f}x"
            ),
            f"{WENT_AWAY_CANDIDATES} candidates, windows {WENT_AWAY_SHAPE}, terms equal on every row",
        ],
    )
    assert us["reference"] / us["k=block"] >= WENT_AWAY_FLOOR
    assert us["k=1"] <= us["reference"]
