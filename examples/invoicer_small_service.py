#!/usr/bin/env python3
"""Invoicer: catching 0.5% regressions on a 16-server service.

The paper's smallest workload (§3): 16 servers, aggressive per-server
sampling (one sample per server per second versus one per minute for
FrontFaaS), and long windows (14 days historic, 1 day analysis, 1 day
extended) to accumulate enough samples for a 0.5% gCPU threshold.

We reproduce the mechanics at laptop scale: a small fleet with a small
effective sample count per point (tiny fleets genuinely get fewer
samples), long windows in *points*, and a relative regression of 12% on
one subroutine — comfortably above the noise the long windows leave.

Run:  python examples/invoicer_small_service.py
"""

from repro import FBDetect
from repro.config import DetectionConfig
from repro.fleet import ChangeEffect, ChangeLog, CodeChange, FleetSimulator, ServiceSpec
from repro.fleet.subroutine import CallGraph, SubroutineSpec
from repro.reporting import build_report, format_report
from repro.tsdb import WindowSpec


def main() -> None:
    graph = CallGraph()
    graph.add(SubroutineSpec("invoicer::Biller::run", 0.0, parent="_start"))
    graph.add(SubroutineSpec("invoicer::Biller::aggregate", 50.0, parent="invoicer::Biller::run"))
    graph.add(SubroutineSpec("invoicer::Pdf::render", 30.0, parent="invoicer::Biller::run"))
    graph.add(SubroutineSpec("invoicer::Tax::compute", 20.0, parent="invoicer::Biller::aggregate"))

    changes = ChangeLog(
        [
            CodeChange(
                "D2001",
                deploy_time=1_220_000.0,
                title="support new tax jurisdictions in invoicer::Tax::compute",
                summary="adds per-jurisdiction lookup to invoicer::Tax::compute",
                effects=(ChangeEffect("invoicer::Tax::compute", 1.12),),
            )
        ]
    )

    # 16 servers at ~1 sample/server/second, 10-minute collection
    # intervals -> ~10k samples per point.
    spec = ServiceSpec(
        name="invoicer",
        call_graph=graph,
        n_servers=16,
        effective_samples=10_000,
        samples_per_interval=100,
    )
    interval = 600.0
    print("simulating 16 days of the 16-server Invoicer fleet ...")
    simulation = FleetSimulator(
        spec, change_log=changes, interval=interval, seed=3
    ).run(16 * 144)  # 144 ten-minute intervals per day

    config = DetectionConfig(
        name="Invoicer (short)",
        threshold=0.005,  # 0.5% absolute gCPU, the Table 1 row
        rerun_interval=12 * 3600.0,
        windows=WindowSpec(
            historic=14 * 86_400.0, analysis=86_400.0, extended=86_400.0
        ),
        long_term=False,
    )
    detector = FBDetect(
        config,
        change_log=changes,
        samples=simulation.collector.sample_history,
        series_filter={"metric": "gcpu"},
    )
    result = detector.run(simulation.database, now=simulation.end_time)

    print(f"\nregressions reported: {len(result.reported)}\n")
    for regression in result.reported:
        print(format_report(build_report(regression)))
        print()


if __name__ == "__main__":
    main()
