#!/usr/bin/env python3
"""FrontFaaS-style in-production monitoring, end to end.

Simulates a service fleet for 900 collection intervals while:

- a code commit regresses one subroutine by 20% of its own cost,
- a refactor commit shifts cost between two other subroutines
  (the Figure 1(b) false-positive source),
- a canary test transiently raises CPU (the Figure 1(c) source),

then runs FBDetect periodically, exactly as production does, and prints
what was reported, what was filtered, and the funnel (Table 3 style).

Run:  python examples/frontfaas_monitoring.py
"""

import numpy as np

from repro import FBDetect
from repro.config import DetectionConfig
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
from repro.reporting import (
    build_report,
    format_funnel_table,
    format_investigation,
    format_report,
    investigate_regression,
)
from repro.tsdb import WindowSpec


def build_service() -> ServiceSpec:
    graph = CallGraph()
    graph.add(SubroutineSpec("web::Server::serve", 0.0, parent="_start", endpoint="/home"))
    graph.add(SubroutineSpec("feed::Ranker::rank", 35.0, parent="web::Server::serve"))
    graph.add(SubroutineSpec("feed::Fetcher::fetch", 25.0, parent="web::Server::serve"))
    graph.add(SubroutineSpec("feed::Fetcher::parse", 20.0, parent="feed::Fetcher::fetch"))
    graph.add(SubroutineSpec("util::Json::encode", 12.0, parent="feed::Ranker::rank"))
    graph.add(SubroutineSpec("util::Json::decode", 8.0, parent="feed::Fetcher::parse"))
    return ServiceSpec(
        name="frontfaas",
        call_graph=graph,
        n_servers=120,
        effective_samples=3_000_000,
        samples_per_interval=300,
    )


def build_changes() -> ChangeLog:
    return ChangeLog(
        [
            CodeChange(
                "D1001",
                deploy_time=42_500.0,
                title="optimize feed::Fetcher::parse chunking",
                summary="rewrites the tokenizer inner loop of feed::Fetcher::parse",
                author="alice",
                effects=(ChangeEffect("feed::Fetcher::parse", 1.2),),
            ),
            CodeChange(
                "D1002",
                deploy_time=43_000.0,
                title="extract decode helper from encode",
                summary="pure refactor moving code from util::Json::encode to util::Json::decode",
                author="bob",
                cost_shifts=(CostShift("util::Json::encode", "util::Json::decode", 0.4),),
            ),
            CodeChange(
                "D1003",
                deploy_time=40_000.0,
                title="update logging format strings",
                summary="no performance impact expected",
                author="carol",
            ),
        ]
    )


def main() -> None:
    spec = build_service()
    changes = build_changes()
    events = [
        TransientEvent(TransientEventKind.CANARY_TEST, start=30_000.0, duration=2_400.0)
    ]

    print("simulating 900 collection intervals of the fleet ...")
    simulation = FleetSimulator(
        spec, change_log=changes, events=events, interval=60.0, seed=7
    ).run(900)

    config = DetectionConfig(
        name="frontfaas-demo",
        threshold=0.002,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )
    detector = FBDetect(
        config,
        change_log=changes,
        samples=simulation.collector.sample_history,
        series_filter={"metric": "gcpu"},
    )

    print("running periodic detection ...\n")
    runs = detector.run_periodic(
        simulation.database, start=54_000.0, end=simulation.end_time
    )

    total_funnel = runs[0].funnel
    for run in runs[1:]:
        total_funnel.merge(run.funnel)

    reported = [r for run in runs for r in run.reported]
    print(f"=== {len(reported)} regression(s) reported to developers ===\n")
    history = simulation.collector.sample_history
    # The sample history is time-ordered; the injected change lands ~71%
    # into the run, so split there for the before/after stack view.
    split = int(0.71 * len(history))
    for regression in reported:
        print(format_report(build_report(regression)))
        investigation = investigate_regression(
            regression, history[:split], history[split:], k=3
        )
        print(format_investigation(investigation))
        print()

    filtered = [
        c
        for run in runs
        for c in run.all_candidates
        if c.verdicts and not c.verdicts[-1].passed
    ]
    reasons = {}
    for candidate in filtered:
        reason = candidate.verdicts[-1].reason.value
        reasons[reason] = reasons.get(reason, 0) + 1
    print("=== filtered false positives by reason ===")
    for reason, count in sorted(reasons.items()):
        print(f"  {reason}: {count}")

    print("\n=== funnel (Table 3 style) ===")
    print(format_funnel_table({"frontfaas": total_funnel}))


if __name__ == "__main__":
    main()
