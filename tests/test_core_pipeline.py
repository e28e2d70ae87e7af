"""Tests for repro.core.pipeline and repro.core.detector."""

import numpy as np
import pytest

from repro import FBDetect, TimeSeriesDatabase, table1_config
from repro.config import DetectionConfig
from repro.core.pipeline import STAGES, DetectionPipeline, FunnelCounters
from repro.core.types import FilterReason, RegressionKind
from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange
from repro.tsdb import WindowSpec

from conftest import fill_series


def small_config(**overrides):
    defaults = dict(
        name="test",
        threshold=0.00002,
        rerun_interval=3600.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
    )
    defaults.update(overrides)
    return DetectionConfig(**defaults)


def regression_values(rng, n=900, base=0.001, shift=0.0002, at=700):
    values = rng.normal(base, 0.00002, n)
    values[at:] += shift
    return values


class TestFunnelCounters:
    def test_stage_order_matches_table3(self):
        assert STAGES[0] == "change_points"
        assert STAGES[-1] == "pairwise_dedup"
        assert "went_away" in STAGES and "cost_shift" in STAGES

    def test_reduction_ratios(self):
        funnel = FunnelCounters()
        funnel.counts.update(change_points=100, went_away=10)
        ratios = funnel.reduction_ratios()
        assert ratios["went_away"] == 10.0
        assert ratios["seasonality"] == float("inf")

    def test_merge(self):
        a, b = FunnelCounters(), FunnelCounters()
        a.counts["change_points"] = 5
        b.counts["change_points"] = 7
        a.merge(b)
        assert a.counts["change_points"] == 12


class TestDetectionPipeline:
    def test_reports_true_regression(self, rng):
        db = TimeSeriesDatabase()
        fill_series(
            db,
            "svc.ns::K::B.gcpu",
            regression_values(rng),
            tags={"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"},
        )
        pipeline = DetectionPipeline(small_config())
        result = pipeline.run(db, now=54_000.0)
        assert len(result.reported) == 1
        regression = result.reported[0]
        assert regression.magnitude == pytest.approx(0.0002, rel=0.25)
        assert result.funnel.counts["change_points"] >= 1

    def test_clean_series_reports_nothing(self, rng):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.clean.gcpu", rng.normal(0.001, 0.00002, 900),
                    tags={"metric": "gcpu"})
        result = DetectionPipeline(small_config()).run(db, now=54_000.0)
        assert result.reported == []

    def test_transient_filtered_by_went_away(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.001, 0.00002, 900)
        values[700:790] += 0.0004
        db = TimeSeriesDatabase()
        fill_series(db, "svc.t.gcpu", values, tags={"metric": "gcpu"})
        result = DetectionPipeline(small_config(long_term=False)).run(db, now=54_000.0)
        assert result.reported == []
        # The candidate existed and was dropped by the went-away stage.
        dropped = [
            c for c in result.all_candidates
            if c.verdicts and c.verdicts[-1].reason is FilterReason.WENT_AWAY
        ]
        assert dropped

    def test_below_threshold_filtered(self, rng):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.small.gcpu", regression_values(rng, shift=0.00008),
                    tags={"metric": "gcpu"})
        config = small_config(threshold=0.001)  # demand a 0.1% shift
        result = DetectionPipeline(config).run(db, now=54_000.0)
        assert result.reported == []

    def test_throughput_orientation(self, rng):
        # A throughput *drop* is a regression for lower-is-worse metrics.
        values = rng.normal(100.0, 1.0, 900)
        values[700:] -= 10.0
        db = TimeSeriesDatabase()
        fill_series(db, "svc.throughput", values, tags={"metric": "throughput"})
        config = small_config(higher_is_worse=False, threshold=5.0, long_term=False)
        result = DetectionPipeline(config).run(db, now=54_000.0)
        assert len(result.reported) == 1

    def test_duplicate_callers_deduplicated(self, rng):
        # Five callers of the same regressed subroutine: one report.
        db = TimeSeriesDatabase()
        shared = rng.normal(0, 0.00002, 900)
        for i in range(5):
            values = 0.001 + shared + rng.normal(0, 0.000002, 900)
            values[700:] += 0.0002
            fill_series(
                db,
                f"svc.ns::K::caller{i}.gcpu",
                values,
                tags={"service": "svc", "subroutine": f"ns::K::caller{i}", "metric": "gcpu"},
            )
        result = DetectionPipeline(small_config(long_term=False)).run(db, now=54_000.0)
        assert result.funnel.counts["change_points"] == 5
        assert len(result.reported) <= 2  # SOM + pairwise collapse the family

    def test_same_regression_across_runs(self, rng):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.s.gcpu", regression_values(rng),
                    tags={"metric": "gcpu", "service": "svc", "subroutine": "s"})
        pipeline = DetectionPipeline(small_config(long_term=False))
        first = pipeline.run(db, now=54_000.0)
        second = pipeline.run(db, now=54_000.0 + 1800.0)
        assert len(first.reported) == 1
        assert second.reported == []  # SameRegressionMerger suppressed it

    def test_series_filter(self, rng):
        db = TimeSeriesDatabase()
        fill_series(db, "a.gcpu", regression_values(rng),
                    tags={"service": "a", "metric": "gcpu"})
        fill_series(db, "b.gcpu", regression_values(rng, at=710),
                    tags={"service": "b", "metric": "gcpu"})
        pipeline = DetectionPipeline(small_config(), series_filter={"service": "a"})
        result = pipeline.run(db, now=54_000.0)
        assert all(r.context.service == "a" for r in result.reported)

    def test_root_cause_attached(self, rng):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.ns::K::B.gcpu", regression_values(rng),
                    tags={"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"})
        # Change deployed just before the regression at t ~ 42000+700*60...
        # The regression's change time falls inside the analysis window.
        log = ChangeLog(
            [
                CodeChange(
                    "culprit",
                    deploy_time=41_500.0,
                    title="rework ns::K::B inner loop",
                    effects=(ChangeEffect("ns::K::B", 1.2),),
                )
            ]
        )
        pipeline = DetectionPipeline(small_config(long_term=False), change_log=log)
        result = pipeline.run(db, now=54_000.0)
        assert result.reported
        assert result.reported[0].root_cause_candidates
        assert result.reported[0].root_cause_candidates[0].change_id == "culprit"

    def test_insufficient_data_skipped(self):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.sparse.gcpu", [0.001] * 5, tags={"metric": "gcpu"})
        result = DetectionPipeline(small_config()).run(db, now=54_000.0)
        assert result.all_candidates == []


class TestFBDetect:
    def test_detect_series_convenience(self, rng):
        detector = FBDetect(small_config())
        result = detector.detect_series(regression_values(rng), tags={"metric": "gcpu"})
        assert len(result.reported) == 1

    def test_run_periodic_reports_once(self, rng):
        db = TimeSeriesDatabase()
        fill_series(db, "svc.s.gcpu", regression_values(rng),
                    tags={"metric": "gcpu"})
        detector = FBDetect(small_config(long_term=False))
        results = detector.run_periodic(db, start=50_000.0, end=54_000.0)
        total_reported = sum(len(r.reported) for r in results)
        assert total_reported == 1

    def test_table1_config_integration(self, rng):
        config = table1_config("frontfaas_small").with_windows(
            historic=36_000.0, analysis=12_000.0, extended=6_000.0
        )
        detector = FBDetect(config)
        result = detector.detect_series(
            regression_values(rng, shift=0.0001), tags={"metric": "gcpu"}
        )
        assert len(result.reported) >= 1


class TestIncrementalScanIntegration:
    """Pipeline-level contracts of the incremental scan cache."""

    def append_quiet(self, series, rng, start, n=10, mean=0.001):
        for tick in range(n):
            series.append(start + (tick + 1) * 60.0,
                          float(rng.normal(mean, 0.00002)))

    def test_lower_is_worse_quiet_series_hits_cache(self, rng):
        """Regression test: the screen anchors on *raw* values.

        With a negated (oriented) anchor, every lower-is-worse series
        has a sign-flipped reference mean, the screen fires on the very
        first folded point, and the cache never produces a hit.
        """
        db = TimeSeriesDatabase()
        fill_series(db, "svc.qps", rng.normal(0.001, 0.00002, 900),
                    tags={"metric": "qps"})
        pipeline = DetectionPipeline(
            small_config(higher_is_worse=False), incremental=True
        )
        pipeline.run(db, now=54_000.0)
        self.append_quiet(db.get("svc.qps"), rng, start=54_000.0)
        pipeline.run(db, now=54_600.0)
        cache = pipeline.incremental_cache
        assert cache.hits >= 1
        assert cache.invalidations == 0

    def test_lower_is_worse_drop_still_detected_incrementally(self, rng):
        """A throughput drop must fire the screen and reach the detector."""
        db = TimeSeriesDatabase()
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] -= 0.0003  # drop = regression when lower is worse
        fill_series(db, "svc.qps", values, tags={"metric": "qps"})
        pipeline = DetectionPipeline(
            small_config(higher_is_worse=False), incremental=True
        )
        result = pipeline.run(db, now=54_000.0)
        assert len(result.reported) == 1

    def test_registry_miss_counter_agrees_with_cache(self, rng):
        """Misses are counted at the decision point, not after the scan.

        A series too short for ``has_minimum_data`` bails before the
        detector runs; the cache must still count that miss.  The cache
        is the counter's one home: the run's ledger carries no copy, and
        ``/metrics`` folds the cache's ints as ``pipeline.incremental.*``.
        """
        db = TimeSeriesDatabase()
        fill_series(db, "svc.sparse.gcpu", [0.001] * 5,
                    tags={"metric": "gcpu"})
        pipeline = DetectionPipeline(small_config(), incremental=True)
        runs = [pipeline.run(db, now=54_000.0), pipeline.run(db, now=54_060.0)]
        cache = pipeline.incremental_cache

        assert (cache.hits, cache.misses) == (0, 2)
        assert not any(
            name.startswith("pipeline.incremental.") for run in runs for name in run.trace.counts
        )
