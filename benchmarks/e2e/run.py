"""The end-to-end benchmark of the streaming detection service.

One workload, one run (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload storm_scan --seed 7 --seconds 20 --trace 0

prints every metric by name with its unit, then one JSON object on the
last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A run whose outputs are wrong prints what was
wrong on stderr, says so in ``correct``, and exits 1.

A set of runs (what a change is measured with)::

    python3 benchmarks/e2e/run.py --runs 3 --trace 1 --out benchmarks/e2e/out/mine.json

runs every workload ``--runs`` times untraced plus once traced, each in
a fresh subprocess, one after another, and writes medians, the layer
table and ``trace_overhead`` to ``--out``; it exits non-zero when any
run was wrong or the exact-repeat outputs differ between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, as a set)")
    parser.add_argument("--seed", type=int, default=20240913)
    parser.add_argument("--seconds", type=float, help="timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, help="run a set: this many untraced runs per workload")
    parser.add_argument("--out", help="set mode: where the set is written")
    parser.add_argument("--quick", action="store_true", help="harness sizes (test_e2e_harness.py)")
    parser.add_argument("--details", help="single run: also write the full result here")
    parser.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    parser.add_argument(
        "--sabotage", choices=("truncate_body", "withhold_frame"), help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_one(args: argparse.Namespace, contract: dict) -> int:
    import driver  # imports repro: fails here when src/ is not there

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    result = driver.run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        quick=args.quick, sabotage=args.sabotage, workers=args.workers,
    )
    measured = result.per_layer if args.trace else result.end_to_end
    metrics = {}
    for row in wanted:
        value, unit = measured[row["name"]]
        if unit != row["unit"]:
            raise SystemExit(f"{row['name']}: measured in {unit}, contract says {row['unit']}")
        metrics[row["name"]] = {"value": value, "unit": unit}
        print(f"{row['name']:<52} {value:>18.6f} {unit}")
    for name, value in result.exact.items():
        print(f"{name:<52} {value}")
    for name in result.layers_missing:
        print(f"layers_missing: {name}")
    for problem in result.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    if args.details:
        os.makedirs(os.path.dirname(os.path.abspath(args.details)), exist_ok=True)
        with open(args.details, "w", encoding="utf-8") as sink:
            json.dump(result.to_dict(), sink)
    sys.stdout.flush()
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.ops_attempted,
        "failed": result.ops_failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


# ---------------------------------------------------------------------------
# A set of runs
# ---------------------------------------------------------------------------


def host_facts() -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "load_1m_at_start": load,
        "noisy_host": load > nproc / 2,
    }


def _spawn(args: argparse.Namespace, workload: str, trace: int, details: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--details", details,
    ]
    if args.quick:
        command.append("--quick")
    if os.path.exists(details):
        os.unlink(details)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if not os.path.exists(details):  # exit 1 with details is a wrong run, kept and reported
        raise SystemExit(f"{workload}: run exited {done.returncode} without a result")
    with open(details, encoding="utf-8") as source:
        return json.load(source)


def run_set(args: argparse.Namespace, contract: dict) -> int:
    import driver

    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    runs = args.runs or 3
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    document = {
        "command": contract["command"], "seed": args.seed, "seconds": args.seconds,
        "runs": runs, "quick": args.quick, "host": host_facts(), "workloads": {},
    }
    wrong: List[str] = []
    for name in names:
        details = os.path.join(out_dir, f"details.{name}.json")
        untraced = []
        for k in range(runs):
            print(f"[{name}] run {k + 1}/{runs}", flush=True)
            untraced.append(_spawn(args, name, 0, details))
        traced = None
        if args.trace:
            print(f"[{name}] traced run", flush=True)
            traced = _spawn(args, name, 1, details)
        os.unlink(details)
        everything = untraced + ([traced] if traced else [])
        for run in everything:
            for problem in run["problems"]:
                wrong.append(f"{name} ({'traced' if run['traced'] else 'untraced'}): {problem}")
        for key in driver.EXACT_KEYS:
            seen = {json.dumps(run["exact"][key], sort_keys=True) for run in everything}
            if len(seen) > 1:
                wrong.append(f"{name}: {key} differs between runs of one seed: {sorted(seen)}")
        entry = {
            "runs": [
                {metric: row["value"] for metric, row in run["end_to_end"].items()}
                for run in untraced
            ],
            "median": {
                metric: statistics.median(run["end_to_end"][metric]["value"] for run in untraced)
                for metric in untraced[0]["end_to_end"]
            },
            "units": {metric: row["unit"] for metric, row in untraced[0]["end_to_end"].items()},
            "ops_attempted": sum(run["ops_attempted"] for run in untraced),
            "ops_failed": sum(run["ops_failed"] for run in untraced),
            "exact": untraced[0]["exact"],
            "inputs_fingerprint": untraced[0]["inputs_fingerprint"],
        }
        if traced:
            traced_rate = traced["end_to_end"]["e2e_samples_per_s"]["value"]
            entry["layers"] = traced["per_layer"]
            entry["layers_missing"] = traced["layers_missing"]
            # e2e numbers above never come from the traced run; this is
            # the only place its throughput is used.
            entry["trace_overhead"] = traced_rate / entry["median"]["e2e_samples_per_s"]
        document["workloads"][name] = entry
        for metric, value in entry["median"].items():
            print(f"[{name}] {metric:<28} {value:>16.6f} {entry['units'][metric]}")
        if traced:
            print(f"[{name}] trace_overhead               {entry['trace_overhead']:>16.6f} ratio")
    document["wrong"] = wrong
    out = args.out or os.path.join(out_dir, "set.json")
    with open(out, "w", encoding="utf-8") as sink:
        json.dump(document, sink, indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {out}")
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    return 1 if wrong else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    known = [w["name"] for w in contract["workloads"]]
    if args.workload and args.workload not in known:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {known}")
    if args.workload and args.runs is None:
        return run_one(args, contract)
    return run_set(args, contract)


if __name__ == "__main__":
    sys.exit(main())
