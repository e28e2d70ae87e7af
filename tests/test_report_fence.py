"""The byte-identical-reports fence, in tier-1.

A seeded mini-fleet (step families, transients, seasonal and quiet
series) runs through :class:`StreamingDetectionService`; every delivered
report, serialized, must equal the golden committed beside this test.
The golden was captured at the commit *before* the scan-tail kernels
(loess, EM, Mann-Kendall, SAX, tail probabilities) were rewritten as
array expressions, so a kernel change that moves a last bit of any
magnitude, z-score or p-value fails here in seconds rather than in the
end-to-end benchmark's ``report_digest``.

Regenerate (only when a report is *meant* to change)::

    PYTHONPATH=src python tests/test_report_fence.py --write
"""

import json
import os
import sys

import numpy as np

from repro.config import DetectionConfig
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.tsdb import WindowSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "report_fence_golden.jsonl")

INTERVAL = 60.0
PRELOAD_POINTS = 450
POINTS_PER_ROUND = 25
ROUNDS = 10
CONFIG = DetectionConfig(
    name="fence",
    threshold=5e-5,
    rerun_interval=POINTS_PER_ROUND * INTERVAL,
    windows=WindowSpec(historic=18_000.0, analysis=6_000.0, extended=3_000.0),
    long_term=False,
)


def _fleet():
    """``(names, tags, values[n_series, n_points])`` for ~40 series."""
    rng = np.random.default_rng([16, 1])
    n_points = PRELOAD_POINTS + ROUNDS * POINTS_PER_ROUND
    t = np.arange(n_points)
    names, tags, rows = [], [], []

    def add(service, subroutine, series):
        names.append(f"{service}.{subroutine}.gcpu")
        tags.append({"service": service, "metric": "gcpu", "subroutine": subroutine})
        rows.append(np.maximum(series, 0.0))

    # Step families: six callers of one leaf step together; the first
    # family is also seasonal, so STL has a real step to keep.
    for family in range(2):
        point = PRELOAD_POINTS + (1 + 3 * family) * POINTS_PER_ROUND + 7 * family + 3
        for caller in range(6):
            base = rng.uniform(5e-4, 2e-3)
            series = rng.normal(base, 0.005 * base, n_points)
            series[point:] += base * rng.uniform(0.2, 0.4)
            if family == 0:
                series += 0.1 * base * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
            add(f"fam{family}", f"fam{family}::Caller{caller}::handle", series)
    # Transients: spikes and dips that are gone within 5..40 points.
    for i in range(14):
        base = rng.uniform(5e-4, 2e-3)
        series = rng.normal(base, 0.02 * base, n_points)
        at = int(rng.integers(0, 120))
        while at < n_points:
            length = int(rng.integers(5, 40))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            series[at : at + length] += base * rng.uniform(0.3, 1.5) * sign
            at += length + int(rng.integers(80, 200))
        add(f"tr{i % 5}", f"tr{i % 5}::Worker{i}::run", series)
    # Seasonal, no step: whatever fires must be dropped by STL.
    for i in range(10):
        base = rng.uniform(5e-4, 2e-3)
        period = int(rng.integers(12, 40))
        series = rng.normal(base, 0.02 * base, n_points)
        series += base * rng.uniform(0.05, 0.3) * np.sin(
            2 * np.pi * t / period + rng.uniform(0, 2 * np.pi)
        )
        add(f"sea{i % 4}", f"sea{i % 4}::Worker{i}::run", series)
    for i in range(4):
        base = rng.uniform(5e-4, 2e-3)
        add("q0", f"q0::Worker{i}::run", rng.normal(base, 0.02 * base, n_points))
    return names, tags, np.array(rows)


def _samples(names, tags, values, start, stop):
    return [
        Sample(names[row], k * INTERVAL, float(values[row, k]), tags[row])
        for k in range(start, stop)
        for row in range(len(names))
    ]


def run_fleet():
    """Serialized reports in delivery order, then the cumulative funnel."""
    names, tags, values = _fleet()
    sink = CollectingSink()
    service = StreamingDetectionService(
        n_shards=2, sinks=[sink], queue_capacity=1 << 16,
        backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor("fence", CONFIG, series_filter={"metric": "gcpu"})
    service.ingest_many(_samples(names, tags, values, 0, PRELOAD_POINTS))
    service.advance_to(PRELOAD_POINTS * INTERVAL)
    for r in range(ROUNDS):
        start = PRELOAD_POINTS + r * POINTS_PER_ROUND
        service.ingest_many(_samples(names, tags, values, start, start + POINTS_PER_ROUND))
        service.advance_to((start + POINTS_PER_ROUND) * INTERVAL)
    lines = [json.dumps(report.to_dict(), sort_keys=True) for report in sink.reports]
    lines.append(json.dumps({"funnel": dict(service.funnel.counts)}, sort_keys=True))
    service.close()
    return lines


def test_reports_are_byte_identical_to_the_golden():
    with open(GOLDEN, encoding="utf-8") as source:
        golden = source.read().splitlines()
    lines = run_fleet()
    assert len(lines) == len(golden)
    for line, expected in zip(lines, golden):
        assert line == expected


def test_the_golden_exercises_the_whole_tail():
    """A fence nothing crosses guards nothing: every Figure 6 filter the
    rewritten kernels sit under must have both kept and dropped."""
    with open(GOLDEN, encoding="utf-8") as source:
        *reports, funnel = [json.loads(line) for line in source]
    counts = funnel["funnel"]
    assert len(reports) >= 2
    assert counts["change_points"] > counts["went_away"] > counts["seasonality"] > 0
    assert any("period=" in entry for r in reports for entry in r["audit_trail"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as sink_file:
        sink_file.write("\n".join(run_fleet()) + "\n")
