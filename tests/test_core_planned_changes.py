"""Tests for repro.core.planned_changes (the §8 extension)."""

import numpy as np
import pytest

from repro import FBDetect, TimeSeriesDatabase
from repro.config import DetectionConfig
from repro.core import planned_changes
from repro.core.planned_changes import PlannedChange, PlannedChangeCorrelator
from repro.core.types import FilterReason, MetricContext, Regression, RegressionKind
from repro.tsdb import TimeSeries, WindowSpec

from conftest import fill_series


def make_regression(change_time=42_000.0, service="svc", metric="cpu", magnitude=0.05):
    series = TimeSeries("svc.cpu")
    rng = np.random.default_rng(0)
    for i in range(900):
        series.append(i * 60.0, 0.5 + float(rng.normal(0, 0.005)))
    view = WindowSpec(36_000.0, 12_000.0, 6_000.0).view(series, now=54_000.0)
    return Regression(
        context=MetricContext(metric_id="svc.cpu", service=service, metric_name=metric),
        kind=RegressionKind.SHORT_TERM,
        change_index=100,
        change_time=change_time,
        mean_before=0.5,
        mean_after=0.5 + magnitude,
        window=view,
    )


class TestPlannedChange:
    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            PlannedChange("x", start=10.0, end=5.0)

    def test_covers_time_window(self):
        change = PlannedChange("x", start=40_000.0, end=44_000.0)
        assert change.covers(make_regression(change_time=42_000.0), slack=0.0)
        assert not change.covers(make_regression(change_time=50_000.0), slack=0.0)

    def test_slack_extends_window(self):
        change = PlannedChange("x", start=43_000.0, end=44_000.0)
        assert change.covers(make_regression(change_time=42_500.0), slack=600.0)

    def test_scope_filters(self):
        change = PlannedChange(
            "x", start=0.0, services=frozenset({"other"}),
        )
        assert not change.covers(make_regression(service="svc"), slack=0.0)
        change = PlannedChange("x", start=0.0, metrics=frozenset({"throughput"}))
        assert not change.covers(make_regression(metric="cpu"), slack=0.0)

    def test_impact_bound(self):
        change = PlannedChange("x", start=0.0, expected_relative_impact=0.05)
        small = make_regression(magnitude=0.02)   # 4% relative
        large = make_regression(magnitude=0.2)    # 40% relative
        assert change.covers(small, slack=0.0)
        assert not change.covers(large, slack=0.0)


class TestPlannedChangeCorrelator:
    def test_suppresses_covered(self):
        correlator = PlannedChangeCorrelator(
            [PlannedChange("maint-1", start=40_000.0, end=50_000.0, description="drain")]
        )
        verdict = correlator.check(make_regression())
        assert not verdict.passed
        assert verdict.reason is FilterReason.PLANNED_CHANGE
        assert "maint-1" in verdict.detail

    def test_keeps_uncovered(self):
        correlator = PlannedChangeCorrelator(
            [PlannedChange("maint-1", start=0.0, end=1_000.0)]
        )
        assert correlator.check(make_regression()).passed

    def test_invalid_slack_raises(self):
        # The slack is one constant, not a per-correlator setting.
        assert planned_changes.TIME_SLACK >= 0
        with pytest.raises(TypeError):
            PlannedChangeCorrelator(time_slack=-1.0)


class TestPipelineIntegration:
    def _config(self):
        return DetectionConfig(
            name="planned",
            threshold=0.00005,
            rerun_interval=3600.0,
            windows=WindowSpec(36_000.0, 12_000.0, 6_000.0),
            long_term=False,
        )

    def _db(self, rng):
        db = TimeSeriesDatabase()
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] += 0.0002  # change at t=42000
        fill_series(db, "svc.sub.gcpu", values,
                    tags={"service": "svc", "subroutine": "sub", "metric": "gcpu"})
        return db

    def test_planned_change_suppresses_report(self, rng):
        correlator = PlannedChangeCorrelator(
            [PlannedChange("exp-ramp", start=41_000.0, end=43_000.0, services=frozenset({"svc"}))]
        )
        detector = FBDetect(self._config(), planned_changes=correlator)
        result = detector.run(self._db(rng), now=54_000.0)
        assert result.reported == []
        dropped = [
            c for c in result.all_candidates
            if any(v.reason is FilterReason.PLANNED_CHANGE for v in c.verdicts)
        ]
        assert dropped

    def test_without_correlator_reports(self, rng):
        detector = FBDetect(self._config())
        result = detector.run(self._db(rng), now=54_000.0)
        assert len(result.reported) == 1

    def test_unrelated_planned_change_does_not_suppress(self, rng):
        correlator = PlannedChangeCorrelator(
            [PlannedChange("other", start=41_000.0, end=43_000.0,
                           services=frozenset({"different-service"}))]
        )
        detector = FBDetect(self._config(), planned_changes=correlator)
        result = detector.run(self._db(rng), now=54_000.0)
        assert len(result.reported) == 1
