"""Compare two sets of runs: ``python3 benchmarks/e2e/compare.py A.json B.json``.

For every workload and end-to-end metric it prints each side's median
and quartiles, how much worse B's median is than A's as a share of A's
(negative = better), the metric's bound from ``BENCHMARK.json``, and a
verdict:

- ``same``       — B is not worse than A by more than the bound;
- ``worse``      — it is, and neither side's runs are spread wider than
  the bound;
- ``unresolved`` — the runs of one side are spread wider than the
  bound, so a difference of that size cannot be told from noise (unless
  every run of B reads better than every run of A, which is ``same``).

Exits 1 on any ``worse``, on a higher ``ops_failed / ops_attempted``,
or when outputs that must repeat exactly (report digest, recall,
funnel and admission counts) differ for one seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from run import load_contract


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _show(values: Sequence[float]) -> str:
    return "{1:>14.6g} [{0:.6g}..{2:.6g}]".format(*quartiles(values))


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """``(verdict, worsening as a share of A's median, widest spread)``."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worsening = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved", worsening, spread
    return ("worse" if worsening > bound else "same"), worsening, spread


def compare(a: dict, b: dict, contract: dict) -> Tuple[List[str], bool]:
    """The report lines, and whether B may stand in for A."""
    lines = [
        f"{'workload':<17} {'metric':<24} {'A median [q1..q3]':>34} {'B median [q1..q3]':>34} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    ]
    ok = True
    for side, document in (("A", a), ("B", b)):
        if document["host"]["noisy_host"]:
            lines.append(f"note: set {side} was measured on a noisy host "
                         f"(load {document['host']['load_1m_at_start']:.2f})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name}: missing from B")
            ok = False
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for row in contract["end_to_end"]:
            metric = row["name"]
            a_values = [run[metric] for run in left["runs"]]
            b_values = [run[metric] for run in right["runs"]]
            outcome, worsening, _ = verdict(a_values, b_values, row["better"], row["bound"])
            lines.append(
                f"{name:<17} {metric:<24} {_show(a_values):>34} {_show(b_values):>34} "
                f"{worsening:>+9.2%} {row['bound']:>6.0%}  {outcome}"
            )
            ok = ok and outcome != "worse"
        a_rate = left["ops_failed"] / left["ops_attempted"]
        b_rate = right["ops_failed"] / right["ops_attempted"]
        if b_rate > a_rate:
            lines.append(f"{name}: ops failed {b_rate:.4%} of attempts in B, {a_rate:.4%} in A")
            ok = False
        if (a["seed"], a["seconds"], a["quick"]) == (b["seed"], b["seconds"], b["quick"]):
            for key, wanted in left["exact"].items():
                if right["exact"].get(key) != wanted:
                    lines.append(
                        f"{name}: {key} differs: A {wanted!r}, B {right['exact'].get(key)!r}"
                    )
                    ok = False
    for side, document in (("A", a), ("B", b)):
        for line in document.get("wrong", ()):
            lines.append(f"set {side} was wrong: {line}")
            ok = False
    return lines, ok


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents: List[Dict] = []
    for path in argv:
        with open(path, encoding="utf-8") as source:
            documents.append(json.load(source))
    lines, ok = compare(documents[0], documents[1], load_contract())
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
