"""Tests for repro.core.cost_shift."""

import zlib
from unittest.mock import patch

import numpy as np
import pytest

from repro.core import cost_shift
from repro.core.cost_shift import CostDomain, CostShiftDetector
from repro.core.types import FilterReason, MetricContext, Regression, RegressionKind
from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange, CostShift
from repro.profiling.stacktrace import StackTrace
from repro.tsdb import TimeSeriesDatabase, WindowSpec


def write_series(db, name, pre, post, tags, n=300, change_at=200):
    """A series at level ``pre`` switching to ``post`` at index change_at."""
    series = db.create(name, tags)
    rng = np.random.default_rng(zlib.crc32(name.encode("utf-8")))
    for i in range(n):
        level = pre if i < change_at else post
        series.append(i * 60.0, level + rng.normal(0, level * 0.01 + 1e-9))
    return series


def make_regression(db, subroutine, service="svc", magnitude=0.0002, endpoint=None,
                    metadata=None):
    """A regression object for ``subroutine`` with the change at t=12000s."""
    spec = WindowSpec(historic=10_000.0, analysis=5_000.0, extended=3_000.0)
    series = db.get(f"{service}.{subroutine}.gcpu")
    view = spec.view(series, now=18_000.0)
    # Change at absolute t=12000 -> analysis index (12000-10000)/60 ~ 33.
    return Regression(
        context=MetricContext(
            metric_id=f"{service}.{subroutine}.gcpu",
            service=service,
            metric_name="gcpu",
            subroutine=subroutine,
            endpoint=endpoint,
            metadata=metadata,
        ),
        kind=RegressionKind.SHORT_TERM,
        change_index=33,
        change_time=12_000.0,
        mean_before=0.001,
        mean_after=0.001 + magnitude,
        window=view,
    )


class TestCostShiftDetector:
    def _db_with_shift(self):
        """B's gCPU jumps, its class sibling A drops, caller stays flat."""
        db = TimeSeriesDatabase()
        write_series(db, "svc.ns::K::B.gcpu", 0.0010, 0.0012,
                     {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"})
        write_series(db, "svc.ns::K::A.gcpu", 0.0012, 0.0010,
                     {"service": "svc", "subroutine": "ns::K::A", "metric": "gcpu"})
        write_series(db, "svc.ns::P::caller.gcpu", 0.0030, 0.0030,
                     {"service": "svc", "subroutine": "ns::P::caller", "metric": "gcpu"})
        return db

    def test_cost_shift_filtered_via_class_domain(self):
        db = self._db_with_shift()
        detector = CostShiftDetector(db)
        regression = make_regression(db, "ns::K::B")
        verdict = detector.check(regression)
        assert not verdict.passed
        assert verdict.reason is FilterReason.COST_SHIFT
        assert "class" in verdict.detail

    def test_cost_shift_filtered_via_caller_domain(self):
        db = self._db_with_shift()
        samples = [
            StackTrace.from_names(["_start", "ns::P::caller", "ns::K::B"], weight=5.0),
            StackTrace.from_names(["_start", "ns::P::caller", "ns::K::A"], weight=5.0),
        ]
        detector = CostShiftDetector(db, samples=samples)
        regression = make_regression(db, "ns::K::B")
        verdict = detector.check(regression)
        assert not verdict.passed

    def test_true_regression_kept(self):
        # B jumps and the class total jumps with it: a real regression.
        db = TimeSeriesDatabase()
        write_series(db, "svc.ns::K::B.gcpu", 0.0010, 0.0012,
                     {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"})
        write_series(db, "svc.ns::K::A.gcpu", 0.0012, 0.0012,
                     {"service": "svc", "subroutine": "ns::K::A", "metric": "gcpu"})
        detector = CostShiftDetector(db)
        verdict = detector.check(make_regression(db, "ns::K::B"))
        assert verdict.passed

    def test_huge_domain_excluded(self):
        # The domain's cost dwarfs the regression: inconclusive, kept.
        db = TimeSeriesDatabase()
        write_series(db, "svc.ns::K::B.gcpu", 0.0010, 0.0012,
                     {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"})
        write_series(db, "svc.ns::K::A.gcpu", 0.2, 0.2,  # 20% CPU class-mate
                     {"service": "svc", "subroutine": "ns::K::A", "metric": "gcpu"})
        with patch.object(cost_shift, "EXCLUSION_RATIO", 100.0):
            verdict = CostShiftDetector(db).check(make_regression(db, "ns::K::B"))
        assert verdict.passed

    def test_new_subroutine_not_cost_shift(self):
        # The domain has no pre-regression data: rule 1.
        db = TimeSeriesDatabase()
        series = db.create(
            "svc.ns::K::B.gcpu",
            {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"},
        )
        # Data only after t=12000 (the change time).
        for i in range(100):
            series.append(12_000.0 + i * 60.0, 0.0012)
        spec = WindowSpec(historic=10_000.0, analysis=5_000.0, extended=3_000.0)
        regression = Regression(
            context=MetricContext(
                metric_id="svc.ns::K::B.gcpu",
                service="svc",
                metric_name="gcpu",
                subroutine="ns::K::B",
            ),
            kind=RegressionKind.SHORT_TERM,
            change_index=33,
            change_time=12_000.0,
            mean_before=0.0,
            mean_after=0.0012,
            window=spec.view(series, now=18_000.0),
        )
        # Give it a class sibling so a class domain exists but with no
        # pre-change data either.
        verdict = CostShiftDetector(db).check(regression)
        assert verdict.passed

    def test_non_subroutine_metric_kept(self):
        db = TimeSeriesDatabase()
        write_series(db, "svc.ns::K::B.gcpu", 0.001, 0.0012,
                     {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"})
        regression = make_regression(db, "ns::K::B")
        object.__setattr__(regression.context, "subroutine", None)
        verdict = CostShiftDetector(db).check(regression)
        assert verdict.passed

    def test_commit_domain(self):
        # A commit touches A and B; total across them is flat -> shift.
        db = self._db_with_shift()
        log = ChangeLog(
            [
                CodeChange(
                    "refactor-1",
                    deploy_time=11_900.0,
                    cost_shifts=(CostShift("ns::K::A", "ns::K::B", 0.2),),
                )
            ]
        )
        detector = CostShiftDetector(db, change_log=log)
        verdict = detector.check(make_regression(db, "ns::K::B"))
        assert not verdict.passed

    def test_endpoint_domain(self):
        db = TimeSeriesDatabase()
        write_series(db, "svc.ns::K::B.gcpu", 0.0010, 0.0012,
                     {"service": "svc", "subroutine": "ns::K::B", "metric": "gcpu"})
        write_series(db, "svc.endpoint.feed.a.gcpu", 0.0008, 0.0010,
                     {"service": "svc", "endpoint": "/feed/a", "metric": "endpoint_gcpu"})
        write_series(db, "svc.endpoint.feed.b.gcpu", 0.0008, 0.0006,
                     {"service": "svc", "endpoint": "/feed/b", "metric": "endpoint_gcpu"})
        detector = CostShiftDetector(db)
        regression = make_regression(db, "ns::K::B", endpoint="/feed/a")
        # Endpoint domain members are looked up by endpoint tag series;
        # domain total flat -> cost shift between sibling endpoints.
        verdict = detector.check(regression)
        assert not verdict.passed


class TestCostDomain:
    def test_members_coerced_to_frozenset(self):
        domain = CostDomain(name="d", kind="custom", members={"a", "b"})
        assert isinstance(domain.members, frozenset)
