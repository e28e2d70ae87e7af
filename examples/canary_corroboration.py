#!/usr/bin/env python3
"""Corroborating an in-production detection with a canary test (§6.2).

The paper's authors validated "resolved" FBDetect reports by checking
that the canary-test tool recorded regressions of the same magnitude at
similar times.  This example runs that workflow end to end:

1. FBDetect catches a regression in production (fleet simulation).
2. A canary test re-runs the comparison in a controlled setting:
   control servers on the old code vs canary servers on the new code.
3. The canary's measured relative delta corroborates the production
   report's relative magnitude.

Run:  python examples/canary_corroboration.py
"""

import numpy as np

from repro import FBDetect
from repro.config import DetectionConfig
from repro.fleet import ChangeEffect, ChangeLog, CodeChange, FleetSimulator, ServiceSpec
from repro.fleet.subroutine import CallGraph, SubroutineSpec
from repro.substrates import compare_canary
from repro.tsdb import WindowSpec


def build_graph():
    graph = CallGraph()
    graph.add(SubroutineSpec("svc::Api::serve", 0.0, parent="_start"))
    graph.add(SubroutineSpec("svc::Enc::encode", 30.0, parent="svc::Api::serve"))
    graph.add(SubroutineSpec("svc::Db::query", 70.0, parent="svc::Api::serve"))
    return graph


def main() -> None:
    # --- 1. In-production detection -----------------------------------
    changes = ChangeLog(
        [
            CodeChange(
                "D7777",
                deploy_time=42_000.0,
                title="switch svc::Enc::encode to the new serializer",
                effects=(ChangeEffect("svc::Enc::encode", 1.35),),
            )
        ]
    )
    spec = ServiceSpec(
        name="svc", call_graph=build_graph(), n_servers=50,
        effective_samples=2_000_000, samples_per_interval=0,
    )
    print("simulating production fleet ...")
    simulation = FleetSimulator(spec, change_log=changes, interval=60.0, seed=4).run(900)

    config = DetectionConfig(
        name="svc", threshold=0.005, rerun_interval=6_000.0,
        windows=WindowSpec(36_000.0, 12_000.0, 6_000.0), long_term=False,
    )
    detector = FBDetect(config, change_log=changes, series_filter={"metric": "gcpu"})
    result = detector.run(simulation.database, now=simulation.end_time)
    report = next(
        r for r in result.reported if r.context.subroutine == "svc::Enc::encode"
    )
    print(
        f"\nFBDetect report: {report.context.metric_id} regressed "
        f"{report.relative_magnitude * 100:.1f}% (gCPU {report.mean_before:.3f} "
        f"-> {report.mean_after:.3f})"
    )

    # --- 2. Canary corroboration ---------------------------------------
    # Control servers run the old binary, canary servers the new one;
    # each server reports the subroutine's measured CPU cost.  The
    # injected change scaled encode's cost 1.35x.
    rng = np.random.default_rng(8)
    per_server_noise = 0.02
    control = 30.0 * (1.0 + rng.normal(0, per_server_noise, 40))
    canary = 30.0 * 1.35 * (1.0 + rng.normal(0, per_server_noise, 10))
    verdict = compare_canary(control, canary)

    print(
        f"canary test:     {verdict.relative_delta * 100:+.1f}% "
        f"(95% CI [{verdict.confidence_interval[0] * 100:+.1f}%, "
        f"{verdict.confidence_interval[1] * 100:+.1f}%], p={verdict.p_value:.2g})"
    )
    print(f"canary verdict:  {'REGRESSED' if verdict.regressed else 'ok'}")

    # --- 3. Do they agree? ----------------------------------------------
    # gCPU is relative, so FBDetect's relative magnitude on encode
    # understates the absolute 35% cost increase (the denominator grew
    # too); the canary measures the absolute cost directly.
    production_absolute = (
        report.mean_after / (1 - report.mean_after)
        / (report.mean_before / (1 - report.mean_before))
        - 1.0
    )
    print(
        f"\nproduction report implies ~{production_absolute * 100:.0f}% subroutine-cost "
        f"increase; canary measured {verdict.relative_delta * 100:.0f}% — corroborated"
    )


if __name__ == "__main__":
    main()
