"""End-to-end integration tests: simulator -> TSDB -> pipeline -> report.

These mirror the production loop: a fleet simulator emits gCPU and
service metrics while code changes and transient events occur; FBDetect
scans periodically and must report the injected true regression (with
the correct root cause), while filtering transients and cost shifts.
"""

import numpy as np
import pytest

from repro import FBDetect
from repro.config import DetectionConfig
from repro.core.types import FilterReason
from repro.fleet import (
    ChangeEffect,
    ChangeLog,
    CodeChange,
    CostShift,
    FleetSimulator,
    ServiceSpec,
    TransientEvent,
    TransientEventKind,
)
from repro.fleet.subroutine import CallGraph, SubroutineSpec
from repro.reporting import build_report, format_report
from repro.tsdb import WindowSpec


def build_graph():
    graph = CallGraph()
    graph.add(SubroutineSpec("svc::Main::serve", self_cost=0.0, parent="_start", endpoint="/api"))
    graph.add(SubroutineSpec("svc::Feed::rank", self_cost=40.0, parent="svc::Main::serve"))
    graph.add(SubroutineSpec("svc::Feed::fetch", self_cost=30.0, parent="svc::Main::serve"))
    graph.add(SubroutineSpec("svc::Util::parse", self_cost=20.0, parent="svc::Feed::fetch"))
    graph.add(SubroutineSpec("svc::Util::format", self_cost=10.0, parent="svc::Feed::rank"))
    return graph


def config():
    # 600/200/100 ticks at 60s.
    return DetectionConfig(
        name="integration",
        threshold=0.002,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


@pytest.fixture(scope="module")
def true_regression_run():
    """900 ticks; a 1.3x regression on svc::Util::parse at t=42000."""
    log = ChangeLog(
        [
            CodeChange(
                "bad-commit",
                deploy_time=42_000.0,
                title="rewrite svc::Util::parse tokenizer",
                summary="replaces the parse loop of svc::Util::parse",
                author="dev1",
                effects=(ChangeEffect("svc::Util::parse", 1.3),),
            ),
            CodeChange(
                "benign-commit",
                deploy_time=41_000.0,
                title="docs update",
                summary="readme only",
            ),
        ]
    )
    spec = ServiceSpec(
        name="svc",
        call_graph=build_graph(),
        n_servers=40,
        effective_samples=2_000_000,
        samples_per_interval=200,
        seasonality_amplitude=0.0,
    )
    sim = FleetSimulator(spec, change_log=log, interval=60.0, seed=11)
    result = sim.run(900)
    detector = FBDetect(
        config(),
        change_log=log,
        samples=result.collector.sample_history,
        series_filter={"metric": "gcpu"},
    )
    return result, detector.run(result.database, now=result.end_time)


class TestTrueRegressionEndToEnd:
    def test_regression_reported(self, true_regression_run):
        _, pipeline_result = true_regression_run
        assert pipeline_result.reported
        metric_ids = [r.context.metric_id for r in pipeline_result.reported]
        assert any("parse" in m or "fetch" in m for m in metric_ids)

    def test_upstream_callers_deduplicated(self, true_regression_run):
        # parse's regression also lifts fetch (its caller); dedup leaves
        # few reports, not one per affected series.
        _, pipeline_result = true_regression_run
        assert len(pipeline_result.reported) <= 2

    def test_root_cause_identified(self, true_regression_run):
        _, pipeline_result = true_regression_run
        top_candidates = [
            r.root_cause_candidates[0].change_id
            for r in pipeline_result.reported
            if r.root_cause_candidates
        ]
        assert "bad-commit" in top_candidates

    def test_report_renders(self, true_regression_run):
        _, pipeline_result = true_regression_run
        text = format_report(build_report(pipeline_result.reported[0]))
        assert "Performance regression" in text


class TestTransientEndToEnd:
    def test_transient_event_not_reported(self):
        events = [
            TransientEvent(
                TransientEventKind.CANARY_TEST, start=45_000.0, duration=3_000.0,
                intensity=2.0,
            )
        ]
        spec = ServiceSpec(
            name="svc",
            call_graph=build_graph(),
            n_servers=40,
            effective_samples=2_000_000,
            samples_per_interval=0,
        )
        sim = FleetSimulator(spec, events=events, interval=60.0, seed=13)
        result = sim.run(900)
        detector = FBDetect(config(), series_filter={"metric": "cpu"})
        pipeline_result = detector.run(result.database, now=result.end_time)
        assert pipeline_result.reported == []


class TestCostShiftEndToEnd:
    def test_refactor_not_reported(self):
        # Move 40% of rank's cost into format: format's gCPU jumps hugely
        # but the class/caller totals stay flat.
        log = ChangeLog(
            [
                CodeChange(
                    "refactor",
                    deploy_time=42_000.0,
                    title="extract formatting from rank",
                    cost_shifts=(CostShift("svc::Feed::rank", "svc::Util::format", 0.2),),
                )
            ]
        )
        spec = ServiceSpec(
            name="svc",
            call_graph=build_graph(),
            n_servers=40,
            effective_samples=2_000_000,
            samples_per_interval=200,
        )
        sim = FleetSimulator(spec, change_log=log, interval=60.0, seed=17)
        result = sim.run(900)
        detector = FBDetect(
            config(),
            change_log=log,
            samples=result.collector.sample_history,
            series_filter={"metric": "gcpu"},
        )
        pipeline_result = detector.run(result.database, now=result.end_time)
        # format's jump must be filtered as a cost shift (or deduped into
        # a group whose representative is then filtered).
        format_reports = [
            r
            for r in pipeline_result.reported
            if r.context.subroutine == "svc::Util::format"
        ]
        assert format_reports == []
        cost_shift_drops = [
            c
            for c in pipeline_result.all_candidates
            if any(v.reason is FilterReason.COST_SHIFT for v in c.verdicts)
        ]
        assert cost_shift_drops


class TestPeriodicOperation:
    def test_regression_reported_exactly_once_across_runs(self):
        log = ChangeLog(
            [
                CodeChange(
                    "bad",
                    deploy_time=42_000.0,
                    title="regress svc::Feed::rank",
                    effects=(ChangeEffect("svc::Feed::rank", 1.2),),
                )
            ]
        )
        spec = ServiceSpec(
            name="svc",
            call_graph=build_graph(),
            n_servers=40,
            effective_samples=2_000_000,
            samples_per_interval=0,
        )
        sim = FleetSimulator(spec, change_log=log, interval=60.0, seed=19)
        result = sim.run(1100)
        detector = FBDetect(config(), change_log=log, series_filter={"metric": "gcpu"})
        runs = detector.run_periodic(
            result.database, start=54_000.0, end=result.end_time
        )
        reported_rank = [
            r
            for run in runs
            for r in run.reported
            if r.context.subroutine == "svc::Feed::rank"
        ]
        assert len(reported_rank) == 1
