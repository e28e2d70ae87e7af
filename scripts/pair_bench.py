#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end benchmark.

Unpacks ``REV`` (``git archive``) into a temporary directory and runs
``benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0``,
unmodified, from that tree and from this one in turn — the side that goes
first alternates — ``--pairs`` times per workload.  Prints, per metric,
both medians, the parent's quartiles, how many pairs the change won, the
failed operations of each side, and whether the outputs that must repeat
exactly (report digest, funnel, admission, ...) are equal.

With ``--layers PREFIX`` (repeatable) each workload then gets one
``--trace 1`` run per side, and the ``per_layer`` rows whose names start
with a prefix are printed parent -> change: where a saving appeared.

It judges nothing: the bounds live in ``BENCHMARK.json`` and
``benchmarks/e2e/compare.py``.

Usage::

    python scripts/pair_bench.py HEAD~1 --workload storm_scan --pairs 10
    python scripts/pair_bench.py HEAD~1 --workload restart_parallel \\
        --layers service.parallel --layers tsdb.write_batch
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree, workload, args, scratch, trace=0):
    details = os.path.join(scratch, "details.json")
    if os.path.exists(details):
        os.unlink(details)
    command = [
        sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--details", details,
    ]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL, check=False)
    if not os.path.exists(details):
        raise SystemExit(f"{workload} in {tree}: exited {done.returncode} without a result")
    with open(details, encoding="utf-8") as source:
        return json.load(source)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        contract = json.load(source)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent commit to pair this tree against")
    parser.add_argument("--workload", action="append", help="repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20240913)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--layers", action="append", metavar="PREFIX", default=[],
                        help="repeatable: also one traced run per side, these per_layer rows")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]

    with tempfile.TemporaryDirectory(prefix="pair_bench.") as scratch:
        parent = os.path.join(scratch, "parent")
        archive = subprocess.run(
            ["git", "archive", args.rev], cwd=ROOT, stdout=subprocess.PIPE, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent if side == "parent" else ROOT
                    runs[side].append(run_once(tree, workload, args, scratch))
                print(f"[{workload}] pair {pair + 1}/{args.pairs} done", flush=True)
            report(workload, runs, contract)
            if args.layers:
                traced = {
                    side: run_once(tree, workload, args, scratch, trace=1)["per_layer"]
                    for side, tree in (("parent", parent), ("change", ROOT))
                }
                report_layers(traced, tuple(args.layers))
    return 0


def report(workload, runs, contract):
    print(f"{workload}: {len(runs['parent'])} alternating pairs")
    print(f"  {'metric':<26} {'parent median [q1..q3]':>40} {'change median':>14} "
          f"{'ratio':>7} {'wins':>6}")
    for row in contract["end_to_end"]:
        name = row["name"]
        a = [run["end_to_end"][name]["value"] for run in runs["parent"]]
        b = [run["end_to_end"][name]["value"] for run in runs["change"]]
        sign = 1.0 if row["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], a[0], a[0])
        a_med, b_med = statistics.median(a), statistics.median(b)
        ratio = b_med / a_med if a_med else float("nan")
        print(f"  {name:<26} {a_med:>14.6g} [{q1:>10.6g}..{q3:<10.6g}] {b_med:>14.6g} "
              f"{ratio:>7.3f} {wins:>3}/{len(a)}")
    for side, side_runs in runs.items():
        failed = sum(run["ops_failed"] for run in side_runs)
        attempted = sum(run["ops_attempted"] for run in side_runs)
        wrong = sum(bool(run["problems"]) for run in side_runs)
        print(f"  {side}: failed ops {failed}/{attempted}, wrong runs {wrong}")
    exact = {json.dumps(run["exact"], sort_keys=True) for side in runs.values() for run in side}
    print(f"  exact outputs equal across all runs: {len(exact) == 1}")


def report_layers(traced, prefixes):
    print("  one traced run per side (not a median):")
    print(f"  {'layer':<50} {'parent':>14} {'change':>14} {'ratio':>7}  unit")
    for name, row in traced["parent"].items():
        if not name.startswith(prefixes) or name not in traced["change"]:
            continue
        a, b = row["value"], traced["change"][name]["value"]
        ratio = b / a if a else float("nan")
        print(f"  {name:<50} {a:>14.6g} {b:>14.6g} {ratio:>7.3f}  {row['unit']}")


if __name__ == "__main__":
    sys.exit(main())
