"""A round's full scans as one matrix pass, at pipeline level.

``DetectionPipeline._detect`` stacks the analysis windows of the series
the screen sent to a full scan and runs CUSUM -> EM -> LRT row-wise; a
second loop, in series order, does what is per candidate.  These tests
pin that the pass finds what the per-series loop found — candidates in
the same order with the same verdict chains and floats, anchors with the
same moments — whatever the block size or orientation, and that a
window the gate refuses never reaches the matrix.
"""

import numpy as np
import pytest

import _reference_kernels as ref
import test_report_fence as fence
from repro.config import DetectionConfig
from repro.core import pipeline as pipeline_module
from repro.core.change_point import ChangePointDetector
from repro.core.pipeline import DetectionPipeline
from repro.quality.gaps import QualityGate
from repro.tsdb import TimeSeriesDatabase, WindowSpec

from conftest import fill_series

ROUNDS = 6


def _config(higher_is_worse):
    return DetectionConfig(
        name="fence",
        threshold=5e-5,
        rerun_interval=fence.CONFIG.rerun_interval,
        windows=fence.CONFIG.windows,
        long_term=False,
        higher_is_worse=higher_is_worse,
    )


def _scan(higher_is_worse, block_rows, monkeypatch, reference=False):
    """The fence fleet in one database, scanned for ``ROUNDS`` rounds;
    returns what every run found and the anchors it left."""
    names, tags, values = fence._fleet()
    if not higher_is_worse:
        values = 2 * values.mean(axis=1, keepdims=True) - values  # mirror: steps become drops
    monkeypatch.setattr(pipeline_module, "SCAN_BLOCK_ROWS", block_rows)
    if reference:
        monkeypatch.setattr(ChangePointDetector, "detect_rows", ref.detect_rows)
    pipeline = DetectionPipeline(
        _config(higher_is_worse), incremental=True, quality_gate=QualityGate()
    )
    monitor = pipeline.new_state()
    database = TimeSeriesDatabase()
    stored = [database.create(name, tag) for name, tag in zip(names, tags)]
    found, anchors, at = [], [], 0
    for stop in range(
        fence.PRELOAD_POINTS, fence.PRELOAD_POINTS + ROUNDS * fence.POINTS_PER_ROUND + 1,
        fence.POINTS_PER_ROUND,
    ):
        for series, row in zip(stored, values):
            for k in range(at, stop):
                series.append(k * fence.INTERVAL, float(row[k]))
        at = stop
        now = stop * fence.INTERVAL
        result = pipeline.run(database, now, state=monitor)
        found.append([
            (
                c.context.metric_id, c.change_index, c.change_time, c.mean_before,
                c.mean_after, [(v.passed, v.reason, v.detail) for v in c.verdicts],
            )
            for c in result.all_candidates
        ])
        cache = monitor.cache
        anchors.append({name: cache.screen_state(name) for name in names})
        # The moments of every anchor laid this round are the 1-D calls'.
        for series in stored:
            state = cache.screen_state(series.name)
            if state["full_scan_at"] == now:
                raw = pipeline.config.windows.view(series, now).analysis
                assert (state["mean"], state["std"]) == (raw.mean(), raw.std())
    return found, anchors, result.trace.counts


@pytest.mark.parametrize("higher_is_worse", [True, False], ids=["higher", "lower"])
def test_matrix_pass_finds_what_the_per_series_loop_found(higher_is_worse, monkeypatch):
    expected = _scan(higher_is_worse, 256, monkeypatch, reference=True)
    monkeypatch.undo()
    assert sum(len(run) for run in expected[0]) >= 10  # the fleet fires this way round too
    for block_rows in (256, 7, 1):
        found, anchors, counts = _scan(higher_is_worse, block_rows, monkeypatch)
        monkeypatch.undo()
        assert found == expected[0]
        assert anchors == expected[1]
        assert 0 < counts["pipeline.full_scan.exact_lrt"] < counts["pipeline.full_scan.rows"]


def test_a_refused_window_gets_no_anchor_and_one_skip():
    """One NaN-bearing window among 50 good ones: 50 rows, one skip."""
    rng = np.random.default_rng(8)
    config = DetectionConfig(
        name="gate",
        threshold=5e-5,
        rerun_interval=300.0,
        windows=WindowSpec(historic=4_500.0, analysis=3_000.0, extended=1_500.0),
        long_term=False,
    )
    database = TimeSeriesDatabase()
    for i in range(51):
        values = rng.normal(1e-3, 2e-5, 150)
        if i == 20:
            values[105:108] = float("nan")
        fill_series(database, f"svc.sub{i}.gcpu", values, 60.0, tags={"metric": "gcpu"})
    pipeline = DetectionPipeline(config, incremental=True)
    monitor = pipeline.new_state()
    trace = pipeline.run(database, 150 * 60.0, state=monitor).trace
    span = trace.span("change_points")
    assert span.inputs == 51 and span.drops["non_finite_window"] == 1
    assert span.outputs + span.drops.get("no_change_point", 0) == 50
    assert trace.counts["pipeline.full_scan.rows"] == 50
    assert trace.counts["pipeline.quality.non_finite_skips"] == 1
    cache = monitor.cache
    assert len(cache) == 50 and cache.screen_state("svc.sub20.gcpu") is None
