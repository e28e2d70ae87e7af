#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end benchmark.

Unpacks ``REV`` (``git archive``) into a temporary directory and runs
``benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0``,
unmodified, from that tree and from this one in turn — the side that goes
first alternates — ``--pairs`` times per workload.  Prints, per metric,
both sides' medians and quartiles, how many pairs the change won, the
failed operations of each side, whether the outputs that must repeat
exactly (report digest, funnel, admission, ...) are equal, and each
run's first host-probe reading (what ``setup_s`` is corrected by).  ``--json
PATH`` also writes all of that, with the host's facts, the seed and the
commit ``REV`` names — one PR's entry of the ``BENCH_<n>.json``
trajectory at the repo root.

With ``--layers PREFIX`` (repeatable) each workload then gets one
``--trace 1`` run per side, and the ``per_layer`` rows whose names start
with a prefix are printed parent -> change: where a saving appeared.

It judges nothing: the bounds live in ``BENCHMARK.json`` and
``benchmarks/e2e/compare.py``.

Usage::

    python scripts/pair_bench.py HEAD~1 --workload storm_scan --pairs 10
    python scripts/pair_bench.py HEAD~1 --pairs 10 --json BENCH_19.json
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
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from run import host_facts  # noqa: E402  (the benchmark's own, so the two files agree)


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
    parser.add_argument("--json", metavar="PATH", help="also write what is printed here")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    commit = subprocess.run(
        ["git", "rev-parse", args.rev], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()
    document = {
        "rev": args.rev, "parent_commit": commit, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "host": host_facts(), "workloads": {},
    }

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
            summary = document["workloads"][workload] = summarise(runs, contract)
            report(workload, summary)
            if args.layers:
                traced = {
                    side: run_once(tree, workload, args, scratch, trace=1)["per_layer"]
                    for side, tree in (("parent", parent), ("change", ROOT))
                }
                summary["layers"] = report_layers(traced, tuple(args.layers))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as sink:
            json.dump(document, sink, indent=1, sort_keys=True)
            sink.write("\n")
    return 0


def summarise(runs, contract):
    """What ``report`` prints for one workload, as one JSON-ready mapping."""
    metrics = {}
    for row in contract["end_to_end"]:
        sides = {
            side: [run["end_to_end"][row["name"]]["value"] for run in side_runs]
            for side, side_runs in runs.items()
        }
        sign = 1.0 if row["better"] == "higher" else -1.0
        entry = {"unit": row["unit"], "better": row["better"]}
        for side, values in sides.items():
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry[side] = {
                "median": statistics.median(values), "q1": q1, "q3": q3, "values": values,
            }
        entry["wins"] = sum(sign * (y - x) > 0 for x, y in zip(sides["parent"], sides["change"]))
        metrics[row["name"]] = entry
    exact = {json.dumps(run["exact"], sort_keys=True) for side in runs.values() for run in side}
    return {
        "pairs": len(runs["parent"]),
        "end_to_end": metrics,
        "ops": {
            side: {
                "failed": sum(run["ops_failed"] for run in side_runs),
                "attempted": sum(run["ops_attempted"] for run in side_runs),
                "wrong_runs": sum(bool(run["problems"]) for run in side_runs),
            }
            for side, side_runs in runs.items()
        },
        "exact_equal": len(exact) == 1,
        "exact": json.loads(min(exact)) if len(exact) == 1 else None,
        # The host probe before the first set-up phase: setup_s is
        # corrected by it, so a slow first reading moves setup_s.
        "first_probe_s": {
            side: [run["phases"][0]["probe_before_s"] for run in side_runs]
            for side, side_runs in runs.items()
        },
    }


def report(workload, summary):
    pairs = summary["pairs"]
    print(f"{workload}: {pairs} alternating pairs")
    print(f"  {'metric':<26} {'parent median [q1..q3]':>40} {'change median [q1..q3]':>40} "
          f"{'ratio':>7} {'wins':>6}")
    for name, entry in summary["end_to_end"].items():
        a, b = entry["parent"], entry["change"]
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        cells = " ".join(
            f"{side['median']:>14.6g} [{side['q1']:>10.6g}..{side['q3']:<10.6g}]" for side in (a, b)
        )
        print(f"  {name:<26} {cells} {ratio:>7.3f} {entry['wins']:>3}/{pairs}")
    for side, ops in summary["ops"].items():
        print(f"  {side}: failed ops {ops['failed']}/{ops['attempted']}, "
              f"wrong runs {ops['wrong_runs']}")
    print(f"  exact outputs equal across all runs: {summary['exact_equal']}")
    for side, probes in summary["first_probe_s"].items():
        print(f"  {side}: first probe ms " + " ".join(f"{s * 1e3:.1f}" for s in probes))


def report_layers(traced, prefixes):
    print("  one traced run per side (not a median):")
    print(f"  {'layer':<50} {'parent':>14} {'change':>14} {'ratio':>7}  unit")
    rows = {}
    for name, row in traced["parent"].items():
        if not name.startswith(prefixes) or name not in traced["change"]:
            continue
        a, b = row["value"], traced["change"][name]["value"]
        ratio = b / a if a else float("nan")
        print(f"  {name:<50} {a:>14.6g} {b:>14.6g} {ratio:>7.3f}  {row['unit']}")
        rows[name] = {"parent": a, "change": b, "unit": row["unit"]}
    return rows


if __name__ == "__main__":
    sys.exit(main())
