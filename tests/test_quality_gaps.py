"""Tests for repro.quality.gaps and the pipeline's gap-aware gating."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.pipeline import DetectionPipeline
from repro.quality import QualityGate, gaps, window_coverage
from repro.tsdb import TimeSeriesDatabase, WindowSpec

from conftest import fill_series

INTERVAL = 60.0


def small_config(**overrides):
    defaults = dict(
        name="test",
        threshold=0.00002,
        rerun_interval=3600.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
    )
    defaults.update(overrides)
    return DetectionConfig(**defaults)


class TestWindowCoverage:
    def test_full_window(self):
        assert window_coverage(10, 0.0, 600.0, 60.0) == 1.0

    def test_half_empty_window(self):
        assert window_coverage(5, 0.0, 600.0, 60.0) == 0.5

    def test_degenerate_cases_abstain(self):
        assert window_coverage(0, 0.0, 0.0, 60.0) == 1.0
        assert window_coverage(0, 0.0, 600.0, 0.0) == 1.0
        assert window_coverage(3, 0.0, 30.0, 60.0) == 1.0  # expected < 1

    def test_overfull_clamps(self):
        assert window_coverage(100, 0.0, 600.0, 60.0) == 1.0


class TestQualityGate:
    def test_cadence_is_median_spacing(self):
        gate = QualityGate()
        with patch.object(gaps, "MIN_CADENCE_POINTS", 4):
            assert gate.cadence([0.0, 60.0, 120.0, 180.0]) == 60.0
            # One late batch does not move the median.
            assert gate.cadence([0.0, 60.0, 120.0, 300.0, 360.0]) == 60.0

    def test_cadence_abstains_on_short_history(self):
        gate = QualityGate()
        assert gate.cadence([0.0, 60.0]) is None

    def test_window_ok_thresholds(self):
        gate = QualityGate()
        historic = [i * 60.0 for i in range(20)]
        ok, coverage = gate.window_ok(historic, 10, 1200.0, 1800.0)
        assert ok and coverage == 1.0
        ok, coverage = gate.window_ok(historic, 3, 1200.0, 1800.0)
        assert not ok and coverage == pytest.approx(0.3)

    def test_window_ok_abstains_without_cadence(self):
        gate = QualityGate()
        assert gate.window_ok([0.0, 60.0], 0, 0.0, 600.0) == (True, 1.0)

    def test_staleness(self):
        gate = QualityGate()
        assert not gate.is_stale(9_000.0, 10_000.0, 1_000.0)
        assert gate.is_stale(5_000.0, 10_000.0, 1_000.0)
        assert not gate.is_stale(5_000.0, 10_000.0, 0.0)

    def test_validation(self):
        """The thresholds are constants now; they hold the ranges the
        gate's fields were validated against."""
        assert 0.0 < gaps.MIN_COVERAGE <= 1.0
        assert gaps.STALE_AFTER_ANALYSIS_WINDOWS > 0.0
        assert gaps.MIN_CADENCE_POINTS >= 2


class TestPipelineDegenerateSeries:
    """ISSUE satellite: the pipeline must neither crash nor alert on
    all-NaN or constant-zero series — with or without a quality gate
    (NaN protection is unconditional; direct-TSDB paths get it too)."""

    @pytest.mark.parametrize("gate", [None, QualityGate()])
    def test_all_nan_series_no_crash_no_alert(self, gate):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.allnan.gcpu", [float("nan")] * 900,
                    tags={"metric": "gcpu"})
        pipeline = DetectionPipeline(small_config(), quality_gate=gate)
        result = pipeline.run(db, now=54_000.0)
        assert result.reported == []

    @pytest.mark.parametrize("gate", [None, QualityGate()])
    def test_constant_zero_series_no_crash_no_alert(self, gate):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.zero.gcpu", [0.0] * 900, tags={"metric": "gcpu"})
        pipeline = DetectionPipeline(small_config(), quality_gate=gate)
        result = pipeline.run(db, now=54_000.0)
        assert result.reported == []

    def test_nan_burst_in_window_suppresses_scan(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.001, 0.00002, 900)
        values[750:780] = float("nan")  # burst inside the analysis window
        db = TimeSeriesDatabase()
        fill_series(db, "svc.burst.gcpu", values, tags={"metric": "gcpu"})
        result = DetectionPipeline(small_config()).run(db, now=54_000.0)
        assert result.reported == []
        assert result.trace.counts.get("pipeline.quality.non_finite_skips", 0) >= 1


class TestPipelineGapGating:
    def test_gappy_window_is_suppressed_not_alerted(self):
        """A window that lost most of its points must not fire a false
        change point from the survivors."""
        rng = np.random.default_rng(11)
        values = rng.normal(0.001, 0.00002, 900)
        db = TimeSeriesDatabase()
        series = db.create("svc.gappy.gcpu", {"metric": "gcpu"})
        for index, value in enumerate(values):
            tick = index * INTERVAL
            # Analysis window [36000, 48000): keep one point in ten.
            if 36_000.0 <= tick < 48_000.0 and index % 10:
                continue
            series.append(tick, float(value) + (0.5 if tick >= 36_000.0 else 0.0))
        pipeline = DetectionPipeline(small_config(), quality_gate=QualityGate())
        result = pipeline.run(db, now=54_000.0)
        assert result.reported == []
        assert result.trace.counts.get("pipeline.quality.low_coverage_skips", 0) >= 1

    def test_stale_series_evicted_until_it_resumes(self):
        rng = np.random.default_rng(13)
        db = TimeSeriesDatabase()
        series = fill_series(
            db, "svc.dead.gcpu", rng.normal(0.001, 0.00002, 900),
            tags={"metric": "gcpu"},
        )
        pipeline = DetectionPipeline(small_config(), quality_gate=QualityGate())
        state = pipeline.new_state()
        # Newest point is 900 ticks old => far beyond 3 analysis spans.
        far_future = 900 * INTERVAL + 4 * 12_000.0
        result = pipeline.run(db, now=far_future, state=state)
        assert result.reported == []
        assert state.stale == {"svc.dead.gcpu"}
        assert result.trace.counts.get("pipeline.quality.stale_evictions", 0) == 1
        # The series resumes: next run un-evicts it.
        series.append(far_future - INTERVAL, 0.001)
        pipeline.run(db, now=far_future, state=state)
        assert state.stale == set()

    def test_no_gate_means_no_gating(self):
        rng = np.random.default_rng(13)
        db = TimeSeriesDatabase()
        fill_series(db, "svc.dead.gcpu", rng.normal(0.001, 0.00002, 900),
                    tags={"metric": "gcpu"})
        pipeline = DetectionPipeline(small_config())
        state = pipeline.new_state()
        pipeline.run(db, now=900 * INTERVAL + 4 * 12_000.0, state=state)
        assert state.stale == set()
