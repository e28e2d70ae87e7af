#!/usr/bin/env python
"""The committed benchmark trajectory, judged: ``python scripts/bench_trajectory.py``.

Reads every ``BENCH_<n>.json`` at the repo root in PR order — each is one
PR's alternating parent/change pairs of the end-to-end benchmark, as
``scripts/pair_bench.py --json`` wrote them — prints one row per PR x
workload x metric, and exits 1 when a file lacks a workload or metric
``BENCHMARK.json`` declares; when ``benchmarks/e2e/compare.py``'s own
``verdict`` over a file's raw paired values is ``worse``; when the change
side failed a larger share of its operations, or the outputs that must
repeat exactly did not; or when the dogfood gate fires on a series of
change-side medians — the repo's own :func:`repro.stats.cusum_changepoint`
locates the most likely shift, :func:`repro.stats.likelihood_ratio_test`
validates it (the CUSUM+LRT pair of §5.2.1) and it is a material
worsening: the Hunter / MongoDB change-point guard over stored per-commit
results, built from the paper's machinery.

Medians compare only on one machine, so each distinct ``host`` (the facts
``pair_bench.py`` records, load aside) is its own segment.  Nothing is
timed here and there are no options: the inputs are the committed files.
"""

import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from compare import verdict  # noqa: E402  (one definition of "worse")

from repro.stats import cusum_changepoint, likelihood_ratio_test  # noqa: E402

#: Dogfood gate: minimum relative worsening that counts as material.
MATERIAL_DROP = 0.10
#: Dogfood gate: history shorter than this is recorded but not judged.
MIN_HISTORY = 8
#: Dogfood gate: only the latest points are judged, so a shift that was
#: accepted long ago does not fail every PR after it.
MAX_HISTORY = 50

#: Host facts that differ between two runs on one machine.
_PER_RUN_HOST_FACTS = ("load_1m_at_start", "noisy_host")


def gate_history(series, better):
    """Dogfood gate over one series: what it found, or ``None``.

    A finding needs all three of: a CUSUM change point, LRT significance
    at 1%, and a material worsening from the mean before it to the mean
    after it (the segment that reaches the latest point).
    """
    series = series[-MAX_HISTORY:]
    if len(series) < MIN_HISTORY:
        return None
    result = cusum_changepoint(series)
    if result is None or result.mean_before <= 0:
        return None
    drop = (result.mean_before - result.mean_after) / result.mean_before
    if better == "lower":
        drop = -drop
    if drop < MATERIAL_DROP:
        return None
    lrt = likelihood_ratio_test(series, result.index)
    if not lrt.significant:
        return None
    return (
        f"change point at point {result.index}/{len(series)} — "
        f"mean {result.mean_before:.6g} -> {result.mean_after:.6g} "
        f"({drop:.1%} worse, LRT p={lrt.p_value:.2e})"
    )


def load_trajectory(root):
    """``[(pr, document)]`` of the root ``BENCH_<n>.json`` files, by PR."""
    entries = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as source:
                entries.append((int(match.group(1)), json.load(source)))
    return sorted(entries, key=lambda entry: entry[0])


def _cell(side):
    return f"{side['median']:>12.6g} [{side['q1']:.6g}..{side['q3']:.6g}]"


def main(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as source:
        contract = json.load(source)
    entries = load_trajectory(root)
    if not entries:
        print(f"no BENCH_<n>.json in {root}")
        return 1
    failures = []
    history = {}  # (host, workload, metric) -> change-side medians, PR order
    print(f"{'PR':>3} {'workload':<17} {'metric':<24} {'parent median [q1..q3]':>38} "
          f"{'change median [q1..q3]':>38} {'wins':>6} {'worse by':>9} {'bound':>6}  verdict")
    for pr, document in entries:
        host = tuple(sorted(
            (fact, value) for fact, value in document["host"].items()
            if fact not in _PER_RUN_HOST_FACTS
        ))
        for workload in (row["name"] for row in contract["workloads"]):
            where = f"BENCH_{pr} {workload}"
            summary = document["workloads"].get(workload)
            if summary is None:
                failures.append(f"{where}: workload missing")
                continue
            for row in contract["end_to_end"]:
                metric = row["name"]
                entry = summary["end_to_end"].get(metric)
                if entry is None:
                    failures.append(f"{where}: metric {metric} missing")
                    continue
                parent, change = entry["parent"], entry["change"]
                outcome, worsening, _ = verdict(
                    parent["values"], change["values"], row["better"], row["bound"]
                )
                print(f"{pr:>3} {workload:<17} {metric:<24} {_cell(parent):>38} "
                      f"{_cell(change):>38} {entry['wins']:>3}/{summary['pairs']:<2} "
                      f"{worsening:>+9.2%} {row['bound']:>6.0%}  {outcome}")
                if outcome == "worse":
                    failures.append(
                        f"{where}: {metric} worse by {worsening:.1%} (bound {row['bound']:.0%})"
                    )
                history.setdefault((host, workload, metric), []).append(change["median"])
            share = {
                side: ops["failed"] / ops["attempted"] for side, ops in summary["ops"].items()
            }
            if share["change"] > share["parent"]:
                failures.append(
                    f"{where}: ops failed {share['change']:.4%} of attempts on the change "
                    f"side, {share['parent']:.4%} on the parent side"
                )
            if not summary["exact_equal"]:
                failures.append(f"{where}: exact outputs differ between runs")

    better = {row["name"]: row["better"] for row in contract["end_to_end"]}
    judged = 0
    for (_, workload, metric), series in history.items():
        judged += len(series) >= MIN_HISTORY
        found = gate_history(series, better[metric])
        if found is not None:
            failures.append(f"{workload} {metric}: {found}")
    print(f"\n{len(entries)} PR(s), {len(history)} series of change-side medians, "
          f"{judged} long enough (>= {MIN_HISTORY} points on one host) for the change-point gate")

    if failures:
        print("\nBENCHMARK TRAJECTORY GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("benchmark trajectory gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
