"""Shared plumbing for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation.  The experiments run on the laptop-scale substitutes
documented in DESIGN.md, so the *shapes* (who wins, by what rough
factor, where crossovers fall) are the reproduction target, not the
absolute production counts.

Benchmarks print their paper-style rows through :func:`emit`, which
both writes to stdout (visible with ``pytest -s``) and appends to
``benchmarks/results.txt`` so a plain ``pytest benchmarks/
--benchmark-only`` run still leaves the reproduced tables on disk.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import FBDetect, TimeSeriesDatabase
from repro.config import DetectionConfig
from repro.core.types import PipelineResult
from repro.tsdb import WindowSpec
from repro.workloads import LabeledWindow

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")

#: Laptop-scale points per window used across benchmarks.
HISTORIC_POINTS = 400
ANALYSIS_POINTS = 150
EXTENDED_POINTS = 50
POINT_INTERVAL = 60.0


def emit(section: str, lines: Sequence[str]) -> None:
    """Print a reproduced table/figure block and append it to results.txt."""
    block = [f"\n### {section}"]
    block.extend(f"    {line}" for line in lines)
    text = "\n".join(block)
    print(text)
    with open(RESULTS_PATH, "a", encoding="utf-8") as sink:
        sink.write(text + "\n")


def small_windows() -> WindowSpec:
    """A window spec matching the benchmark corpus layout."""
    return WindowSpec(
        historic=HISTORIC_POINTS * POINT_INTERVAL,
        analysis=ANALYSIS_POINTS * POINT_INTERVAL,
        extended=EXTENDED_POINTS * POINT_INTERVAL,
    )


def bench_config(
    threshold: float = 0.00002,
    higher_is_worse: bool = True,
    long_term: bool = False,
    **overrides,
) -> DetectionConfig:
    """A detection config sized for the benchmark corpora."""
    return DetectionConfig(
        name="bench",
        threshold=threshold,
        rerun_interval=3600.0,
        windows=small_windows(),
        higher_is_worse=higher_is_worse,
        long_term=long_term,
        **overrides,
    )


def detect_window(window: LabeledWindow, config: Optional[DetectionConfig] = None) -> PipelineResult:
    """Run FBDetect over one labelled window laid out on the bench grid."""
    config = config or bench_config()
    detector = FBDetect(config)
    database = TimeSeriesDatabase()
    series = database.create("bench.sub.gcpu", {"metric": "gcpu", "subroutine": "sub"})
    for i, value in enumerate(window.values):
        series.append(i * POINT_INTERVAL, float(value))
    return detector.run(database, now=window.values.size * POINT_INTERVAL)


def detected_truthfully(window: LabeledWindow, result: PipelineResult) -> bool:
    """Whether the pipeline's outcome matches the window's label."""
    reported = bool(result.reported)
    return reported == window.is_true_regression


def confusion(
    windows: Sequence[LabeledWindow],
    results: Sequence[PipelineResult],
) -> Dict[str, int]:
    """Confusion-matrix counts over labelled windows."""
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for window, result in zip(windows, results):
        reported = bool(result.reported)
        if window.is_true_regression and reported:
            counts["tp"] += 1
        elif window.is_true_regression:
            counts["fn"] += 1
        elif reported:
            counts["fp"] += 1
        else:
            counts["tn"] += 1
    return counts


def window_pairs(
    windows: Sequence[LabeledWindow],
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], List[Tuple[np.ndarray, np.ndarray]]]:
    """(positives, negatives) as (historic, analysis+extended) pairs for
    the EGADS-style baselines, which consume whole windows."""
    positives, negatives = [], []
    for window in windows:
        pair = (
            window.historic,
            np.concatenate([window.analysis, window.extended]),
        )
        if window.is_true_regression:
            positives.append(pair)
        else:
            negatives.append(pair)
    return positives, negatives
