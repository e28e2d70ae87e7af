"""CI benchmark-regression gate, dogfooding the repo's own detector.

Run by the ``bench-smoke`` CI job.  It takes reduced-size measurements
from the service benchmarks, writes them to ``BENCH_ci.json``, and fails
the build on two kinds of regression:

1. **Baseline ratios** (hard gate).  Machine-independent ratios —
   multi-shard ingest scaling, incremental-cache speedup, per-shard scan
   latency improvement — are compared against the committed
   ``benchmarks/ci_baseline.json``.  A drop of more than 20% below the
   baseline fails the job.  Ratios survive hardware differences between
   the committing laptop and the CI runner, which is why the hard gate
   lives here and not on absolute throughput.
2. **Floors** (hard gate).  Ratios whose required level is part of the
   design contract rather than a moving baseline — the columnar batch
   screen must stay >= 10x over the seed per-series loop, and ingest
   goodput with data-quality admission on must stay within bounds of
   admission off.  Committed floors in ``ci_baseline.json`` are compared
   directly: ``value >= floor``, no tolerance band.
3. **History change points** (dogfood gate).  Absolute throughput
   numbers are machine-dependent, so they are appended to a rolling
   history file (restored across runs via ``actions/cache``) and scanned
   with the repo's *own* statistics — :func:`repro.stats.cusum_changepoint`
   to locate the most likely shift and
   :func:`repro.stats.likelihood_ratio_test` to validate it, exactly the
   CUSUM+LRT pair the detection pipeline uses (§5.2.1).  A significant,
   material (>10%) downward shift whose post-change segment includes the
   latest run fails the job.  This is the MongoDB-style change-point CI
   guard, built from the paper's machinery instead of a t-test.

Usage::

    python benchmarks/check_bench_regression.py \
        --output BENCH_ci.json --history bench_history.json
    python benchmarks/check_bench_regression.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _corpus import fig8_corpus  # noqa: E402
from bench_detector_scorecard import score_detectors  # noqa: E402
from bench_mozilla_corpus import run_corpus, score_corpus  # noqa: E402
from bench_scan_batch import measure_batch_scan  # noqa: E402
from bench_service_throughput import (  # noqa: E402
    CAPACITY,
    INTERVAL,
    SERIES,
    best_goodput_by_quality,
    burst_stream,
    run_burst_ingest,
    scan_config,
)

from repro.detectors import default_suite  # noqa: E402

from repro.service import (  # noqa: E402
    BackpressurePolicy,
    Sample,
    StreamingDetectionService,
)
from repro.stats import cusum_changepoint, likelihood_ratio_test  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "ci_baseline.json")

#: Hard-gate tolerance: a ratio may drop to 80% of baseline, no lower.
RATIO_FLOOR = 0.8
#: Dogfood gate: minimum relative drop that counts as material.
MATERIAL_DROP = 0.10
#: Dogfood gate: history shorter than this is recorded but not judged.
MIN_HISTORY = 8

# Reduced sizes: the gate must finish in well under a minute on a runner.
SCAN_SERIES = SERIES[:32]
SCAN_TICKS = 900
SCAN_ROUNDS = 3
RERUN = 6_000.0
BATCH_SCAN_SERIES = 4_000

#: Committed floor values (written verbatim by --update-baseline).
#: batch_scan_speedup: the columnar refactor's contract — vectorized
#: batch screening at least 10x over the seed per-series fold.
#: admission_goodput_ratio: quality admission keeps >= 80% of disabled-
#: admission goodput (the <= 5% design target is reported in info; the
#: floor is loose so scheduler jitter on busy runners never flakes it).
FLOORS = {
    "batch_scan_speedup": 10.0,
    "admission_goodput_ratio": 0.8,
}


def _scan_service(incremental: bool) -> StreamingDetectionService:
    service = StreamingDetectionService(
        n_shards=4,
        queue_capacity=1 << 20,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=4_096,
    )
    service.register_monitor(
        "gcpu", scan_config(), series_filter={"metric": "gcpu"},
        incremental=incremental,
    )
    return service


def _ingest_history(service: StreamingDetectionService) -> None:
    import numpy as np

    rng = np.random.default_rng(11)
    for index, name in enumerate(SCAN_SERIES):
        values = rng.normal(0.001, 0.00002, SCAN_TICKS)
        if index == 3:  # one injected regression -> deterministic report
            values[700:] += 0.0003
        service.ingest_many(
            [
                Sample(name, tick * INTERVAL, float(values[tick]),
                       {"metric": "gcpu"})
                for tick in range(SCAN_TICKS)
            ]
        )
    service.flush()


def measure() -> dict:
    """Take every reduced measurement; returns the BENCH_ci payload."""
    # -- ingest scaling (ratio) ----------------------------------------
    bursts = burst_stream()[:20]
    goodput = {}
    for n_shards in (1, 4):
        stats, elapsed = run_burst_ingest(n_shards, bursts)
        goodput[n_shards] = stats.accepted / elapsed

    # -- admission overhead (floor) ------------------------------------
    admission = best_goodput_by_quality(bursts, reps=5)
    admission_ratio = admission["validated"] / admission["disabled"]

    # -- columnar batch screening vs seed per-series loop (floor) ------
    batch_scan = measure_batch_scan(BATCH_SCAN_SERIES)

    # -- scan latency + incremental speedup + report count -------------
    elapsed_by_mode = {}
    scan_goodput = 0.0
    reports_delivered = 0
    hit_rate = 0.0
    for incremental in (False, True):
        service = _scan_service(incremental)
        _ingest_history(service)
        reports = service.advance_to(SCAN_TICKS * INTERVAL)
        started = time.perf_counter()
        for round_index in range(1, SCAN_ROUNDS + 1):
            reports += service.advance_to(
                SCAN_TICKS * INTERVAL + round_index * RERUN
            )
        elapsed = time.perf_counter() - started
        elapsed_by_mode[incremental] = elapsed
        if not incremental:
            scans = service.metrics.histogram("scheduler.scan_seconds").count
            scan_goodput = scans / elapsed
            reports_delivered = len(reports)
        else:
            counters = service.metrics.snapshot()["counters"]
            hits = counters.get("pipeline.incremental.hits", 0.0)
            misses = counters.get("pipeline.incremental.misses", 0.0)
            hit_rate = hits / (hits + misses) if hits + misses else 0.0
        service.close()

    # -- detector scorecard (reduced corpus) ---------------------------
    # The registry's quality gate: the incumbent's accuracy over a
    # reduced labelled corpus must not erode.  E-divisive permutations
    # are cut down so the gate stays fast; detector IDs shift with the
    # override, which is fine — the gate tracks the incumbent row.
    corpus = fig8_corpus(
        n_positive=6, n_clean=8, n_transient=8, n_seasonal=3,
        n_wobble=8, n_drift=3,
    )
    scorecard = score_detectors(
        default_suite(
            threshold=0.000004,
            overrides={"e_divisive": {"n_permutations": 29}},
        ),
        corpus,
    )
    incumbent = next(row for row in scorecard if row["type"] == "incumbent")
    total = incumbent["tp"] + incumbent["fp"] + incumbent["fn"] + incumbent["tn"]
    incumbent_accuracy = (incumbent["tp"] + incumbent["tn"]) / total

    # -- Mozilla labeled-alert corpus (ratio) --------------------------
    # Real-world labels (arXiv 2503.16332 slice): the full service path
    # must keep matching the sheriff-validated alerts.  The slice is
    # committed and deterministic, so the F1 is machine-independent.
    _, _, mozilla_reports, mozilla_labels = run_corpus()
    mozilla_scores = score_corpus(mozilla_reports, mozilla_labels)

    return {
        "ratios": {
            # Higher is better for every ratio in this block.
            "ingest_goodput_scaling_4v1": goodput[4] / goodput[1],
            "incremental_speedup": elapsed_by_mode[False] / elapsed_by_mode[True],
            "scorecard_incumbent_accuracy": incumbent_accuracy,
            "mozilla_corpus_f1": mozilla_scores["f1"],
        },
        "counts": {
            "reports_delivered": reports_delivered,
            "scorecard_detectors": len(scorecard),
        },
        "floors": {
            # Design-contract minimums; gated as value >= floor.
            "batch_scan_speedup": batch_scan["speedup"],
            "admission_goodput_ratio": admission_ratio,
        },
        "absolutes": {
            # Machine-dependent; judged by the change-point history gate.
            "ingest_goodput_1shard": goodput[1],
            "scan_goodput_serial": scan_goodput,
            "batch_scan_points_per_s": batch_scan["batch_points_per_s"],
        },
        "info": {
            "incremental_hit_rate": hit_rate,
            "admission_overhead_pct": 100.0 * (1.0 / admission_ratio - 1.0),
            "batch_scan_series": batch_scan["n_series"],
            "cpu_count": os.cpu_count(),
        },
    }


def gate_ratios(current: dict, baseline: dict) -> list:
    """Hard gate: every ratio must stay >= RATIO_FLOOR * baseline."""
    failures = []
    for name, base in baseline.get("ratios", {}).items():
        value = current["ratios"].get(name)
        if value is None:
            failures.append(f"ratio {name} missing from current run")
            continue
        if value < RATIO_FLOOR * base:
            failures.append(
                f"ratio {name} = {value:.3f} dropped >20% below baseline "
                f"{base:.3f} (floor {RATIO_FLOOR * base:.3f})"
            )
    for name, base in baseline.get("counts", {}).items():
        value = current["counts"].get(name)
        if value != base:
            failures.append(f"count {name} = {value} != baseline {base}")
    return failures


def gate_floors(current: dict, baseline: dict) -> list:
    """Hard gate: every floored metric must reach its committed floor."""
    failures = []
    for name, floor in baseline.get("floors", {}).items():
        value = current.get("floors", {}).get(name)
        if value is None:
            failures.append(f"floor metric {name} missing from current run")
            continue
        if value < floor:
            failures.append(
                f"floor {name} = {value:.3f} below required {floor:.3f}"
            )
    return failures


def gate_history(history: dict, current: dict) -> list:
    """Dogfood gate: CUSUM+LRT over each absolute metric's history.

    Appends the current values to ``history`` in place, then judges any
    metric with enough points.  A failure requires all three of: a CUSUM
    change point, LRT significance at 1%, and a material drop whose
    post-change segment reaches the latest run.
    """
    failures = []
    for name, value in current["absolutes"].items():
        series = history.setdefault(name, [])
        series.append(float(value))
        del series[:-50]  # bound the cached history
        if len(series) < MIN_HISTORY:
            continue
        result = cusum_changepoint(series)
        if result is None or result.mean_before <= 0:
            continue
        drop = (result.mean_before - result.mean_after) / result.mean_before
        if drop < MATERIAL_DROP:
            continue
        lrt = likelihood_ratio_test(series, result.index)
        if lrt.significant:
            failures.append(
                f"{name}: change point at run {result.index}/{len(series)} — "
                f"mean {result.mean_before:.1f} -> {result.mean_after:.1f} "
                f"({drop:.1%} drop, LRT p={lrt.p_value:.2e})"
            )
    return failures


def _load_json(path: str, default: dict) -> dict:
    if path and os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    return default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_ci.json",
                        help="where to write the measurement payload")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="committed ratio baseline to gate against")
    parser.add_argument("--history", default=None,
                        help="rolling absolute-throughput history (JSON)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed baseline and exit")
    args = parser.parse_args(argv)

    current = measure()
    with open(args.output, "w") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    print(json.dumps(current, indent=2, sort_keys=True))

    if args.update_baseline:
        # Timing ratios vary across machines; cap the committed baseline
        # at conservative values so the 20% floor gates real regressions
        # instead of hardware differences.
        caps = {
            "ingest_goodput_scaling_4v1": 2.5,
            "incremental_speedup": 2.0,
            "scorecard_incumbent_accuracy": 0.95,
            "mozilla_corpus_f1": 1.0,
        }
        ratios = {
            name: min(value, caps.get(name, value))
            for name, value in current["ratios"].items()
        }
        # Floors are design contracts, not measurements: committed
        # verbatim so a fast machine can never relax them.
        baseline = {
            "ratios": ratios,
            "counts": current["counts"],
            "floors": dict(FLOORS),
        }
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    failures = []
    baseline = _load_json(args.baseline, {})
    if baseline:
        failures += gate_ratios(current, baseline)
        failures += gate_floors(current, baseline)
    else:
        print(f"warning: no baseline at {args.baseline}; ratio gate skipped")

    if args.history is not None:
        history = _load_json(args.history, {})
        failures += gate_history(history, current)
        history_dir = os.path.dirname(os.path.abspath(args.history))
        os.makedirs(history_dir, exist_ok=True)
        with open(args.history, "w") as handle:
            json.dump(history, handle, indent=2, sort_keys=True)
        lengths = {name: len(series) for name, series in history.items()}
        print(f"history updated: {args.history} {lengths}")

    if failures:
        print("\nBENCHMARK REGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
