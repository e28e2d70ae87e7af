#!/usr/bin/env python3
"""The always-on monitoring service: many workloads, one scheduler.

Mirrors production operation (§5.1): one :class:`DetectionScheduler`
owns monitors for several services with different configurations and
re-run intervals, scans them as simulated time advances, trims the TSDB
to what the monitors read, suppresses a regression explained by a registered *planned*
capacity change (the paper's §8 extension), and hands back what each
scan found; ``deliver_outcomes`` files the incident reports through a
sink.

Run:  python examples/monitoring_daemon.py
"""

import numpy as np

from repro.config import DetectionConfig
from repro.core.planned_changes import PlannedChange, PlannedChangeCorrelator
from repro.fleet import ChangeEffect, ChangeLog, CodeChange, FleetSimulator, ServiceSpec
from repro.fleet.subroutine import build_random_call_graph
from repro.reporting import format_report
from repro.runtime import CollectingSink, DetectionScheduler, deliver_outcomes
from repro.tsdb import TimeSeriesDatabase, WindowSpec


def simulate_services(db: TimeSeriesDatabase):
    """Two services: one real regression, one planned capacity drain."""
    rng = np.random.default_rng(0)

    # Service A: a genuine code regression at t = 42600s.
    graph_a = build_random_call_graph(60, rng, n_classes=8)
    hot = max(
        (n for n in graph_a.names() if n != "_start"),
        key=lambda n: graph_a.inclusion_probabilities()[n],
    )
    changes_a = ChangeLog(
        [
            CodeChange(
                "D4242",
                deploy_time=42_600.0,
                title=f"enable new ranking model in {hot}",
                effects=(ChangeEffect(hot, 1.6),),
            )
        ]
    )
    FleetSimulator(
        ServiceSpec("feedsvc", graph_a, n_servers=60, effective_samples=2_000_000,
                    samples_per_interval=0),
        change_log=changes_a,
        interval=60.0,
        seed=1,
        database=db,
    ).run(1000)

    # Service B: a *planned* traffic drain halves throughput at t = 43000s.
    rng_b = np.random.default_rng(2)
    series = db.create("adsvc.throughput", {"service": "adsvc", "metric": "throughput"})
    for tick in range(1000):
        base = 50_000.0 if tick * 60.0 < 43_000.0 else 26_000.0
        series.append(tick * 60.0, base * (1.0 + rng_b.normal(0, 0.01)))
    return changes_a, hot


def main() -> None:
    db = TimeSeriesDatabase()
    print("simulating two services for ~16.7 hours ...")
    changes_a, hot = simulate_services(db)

    sink = CollectingSink()
    scheduler = DetectionScheduler(db)

    windows = WindowSpec(36_000.0, 12_000.0, 6_000.0)
    scheduler.register(
        "feedsvc-gcpu",
        DetectionConfig(name="feedsvc", threshold=0.001, rerun_interval=6_000.0,
                        windows=windows, long_term=False),
        series_filter={"service": "feedsvc", "metric": "gcpu"},
        change_log=changes_a,
    )

    planned = PlannedChangeCorrelator(
        [
            PlannedChange(
                "DRAIN-77",
                start=42_800.0,
                end=float("inf"),
                description="planned region drain: adsvc traffic halves",
                services=frozenset({"adsvc"}),
            )
        ]
    )
    scheduler.register(
        "adsvc-throughput",
        DetectionConfig(name="adsvc", threshold=0.05, relative_threshold=True,
                        rerun_interval=6_000.0, windows=windows,
                        higher_is_worse=False, long_term=False),
        series_filter={"service": "adsvc", "metric": "throughput"},
        planned_changes=planned,
    )

    print(f"registered monitors: {scheduler.monitors()}")
    outcomes = scheduler.advance_to(60_000.0)
    deliver_outcomes(outcomes, [sink])
    print(f"\nran {len(outcomes)} scans across both monitors")

    print(f"\n=== {len(sink.reports)} incident(s) filed ===\n")
    for report in sink.reports:
        print(format_report(report))
        print()

    suppressed = [
        c
        for outcome in outcomes
        for c in outcome.result.all_candidates
        if any(v.reason is not None and v.reason.value == "planned_change"
               for v in c.verdicts)
    ]
    print(f"regressions suppressed by planned-change correlation: {len(suppressed)}")
    for candidate in suppressed[:2]:
        print(f"  {candidate.context.metric_id}: "
              f"{candidate.verdicts[-1].detail}")


if __name__ == "__main__":
    main()
