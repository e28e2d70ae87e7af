"""The built-in detector library and the suite that scores it.

Five detectors spanning the approaches the literature disagrees on
(BIPeC's premise — arXiv 2408.12414 — is that no single change-point
analyzer wins everywhere), and :func:`default_suite`, one of each as the
scorecard runs them:

- :class:`IncumbentDetector` — the paper's own stack, the Figure 6
  pipeline :class:`~repro.core.detector.FBDetect` runs, wrapped as a
  detector unit, so challengers are always measured against it.
- :class:`EDivisiveDetector` — Hunter-style energy-statistic split with
  permutation significance (:mod:`repro.stats.e_divisive`).
- :class:`DPChangePointDetector` — normal-loss dynamic-programming split
  (:mod:`repro.stats.changepoint_dp`) validated by the likelihood-ratio
  test.
- :class:`MADDetector` — robust static preset: fire when a run of
  analysis points exceeds ``median + mad_threshold`` of the baseline
  (:mod:`repro.stats.robust`).
- :class:`ThresholdDetector` — the simplest possible preset: a fixed
  absolute level with a persistence run, the classic ops alarm.

All decisions use *global* indices into the concatenated
historic+analysis+extended window so detection-latency comparisons need
no per-detector offset bookkeeping.  Each challenger's settings are
module constants (a test patches them); only the incumbent's threshold
and the static level are set per instance.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.config import DetectionConfig
from repro.core.detector import FBDetect
from repro.detectors.base import Detector, DetectorDecision, DetectorWindow
from repro.stats.changepoint_dp import best_split_normal_loss
from repro.stats.e_divisive import e_divisive_test
from repro.stats.hypothesis import likelihood_ratio_test
from repro.stats.robust import mad_threshold
from repro.tsdb.windows import WindowSpec

__all__ = [
    "DPChangePointDetector",
    "EDivisiveDetector",
    "IncumbentDetector",
    "MADDetector",
    "ThresholdDetector",
    "default_suite",
]

#: Historic points a challenger scans before the analysis window.
CONTEXT_POINTS = 100
#: E-divisive: smallest segment, permutations, significance level, the
#: longest series scanned (the statistic is O(n^2)) and the permutation
#: RNG's seed.
E_DIVISIVE_MIN_SEGMENT = 8
E_DIVISIVE_PERMUTATIONS = 99
E_DIVISIVE_ALPHA = 0.05
E_DIVISIVE_MAX_POINTS = 256
E_DIVISIVE_SEED = 1
#: DP change point: smallest segment and the LRT's significance level.
DP_MIN_SEGMENT = 5
DP_SIGNIFICANCE_LEVEL = 0.01
#: MAD preset: the fire level is ``median + MAD_COEFFICIENT * MAD``.
MAD_COEFFICIENT = 3.0
#: Consecutive exceedances the MAD and threshold presets need to fire.
MIN_RUN = 5


def _with_context(window: DetectorWindow) -> Tuple[np.ndarray, int]:
    """The last :data:`CONTEXT_POINTS` historic points, then analysis and
    extended: ``(series to scan, global index of its first point)``."""
    tail = window.historic[-CONTEXT_POINTS:] if CONTEXT_POINTS else window.historic[:0]
    x = np.concatenate([tail, window.analysis, window.extended])
    return x, window.historic.size - tail.size


def _first_run(exceeds: np.ndarray, min_run: int) -> Optional[int]:
    """Start index of the first ``min_run`` consecutive True values."""
    if exceeds.size < min_run:
        return None
    if min_run <= 1:
        hits = np.flatnonzero(exceeds)
        return int(hits[0]) if hits.size else None
    window = np.convolve(exceeds.astype(int), np.ones(min_run, dtype=int), "valid")
    hits = np.flatnonzero(window == min_run)
    return int(hits[0]) if hits.size else None


class IncumbentDetector(Detector):
    """The paper's Figure 6 pipeline as a detector unit.

    Scans a window with :class:`~repro.core.detector.FBDetect` — the
    pipeline every monitor runs — laid on a one-second grid sized to
    the window's three segments, so a scorecard always includes the
    stack challengers must beat, and a change to a Figure 6 stage
    reaches its row.  Its score is the reported relative magnitude.
    """

    type_name = "incumbent"
    version = 2

    def __init__(self, threshold: float = 0.00002) -> None:
        self.threshold = threshold

    def params(self) -> Mapping[str, object]:
        return {"threshold": self.threshold}

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        spec = WindowSpec(
            historic=float(window.historic.size),
            analysis=float(window.analysis.size),
            extended=float(window.extended.size),
        )
        config = DetectionConfig(
            name=self.type_name, threshold=self.threshold, windows=spec, long_term=False
        )
        result = FBDetect(config).detect_series(window.full)
        if not result.reported:
            return DetectorDecision.quiet("pipeline reported no regression")
        regression = result.reported[0]
        return DetectorDecision(
            fired=True,
            index=window.analysis_start + regression.change_index,
            magnitude=float(regression.magnitude),
            score=float(regression.relative_magnitude),
            detail="pipeline reported the change point",
        )


class EDivisiveDetector(Detector):
    """Hunter-style E-divisive challenger.

    Scans a bounded context (a historic tail plus analysis+extended) so
    the O(n^2) energy statistic stays cheap, and fires only when the
    significant split lands inside the analysis/extended region with a
    positive shift.
    """

    type_name = "e_divisive"
    version = 1

    def params(self) -> Mapping[str, object]:
        return {
            "min_segment": E_DIVISIVE_MIN_SEGMENT,
            "n_permutations": E_DIVISIVE_PERMUTATIONS,
            "alpha": E_DIVISIVE_ALPHA,
            "context_points": CONTEXT_POINTS,
            "max_points": E_DIVISIVE_MAX_POINTS,
            "seed": E_DIVISIVE_SEED,
        }

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        x, offset = _with_context(window)
        if x.size > E_DIVISIVE_MAX_POINTS:
            clip = x.size - E_DIVISIVE_MAX_POINTS
            x = x[clip:]
            offset += clip
        result = e_divisive_test(
            x,
            min_segment=E_DIVISIVE_MIN_SEGMENT,
            n_permutations=E_DIVISIVE_PERMUTATIONS,
            alpha=E_DIVISIVE_ALPHA,
            seed=E_DIVISIVE_SEED,
        )
        if result is None:
            return DetectorDecision.quiet("window too short")
        if not result.significant:
            return DetectorDecision.quiet(
                f"permutation p={result.p_value:.3f} > alpha"
            )
        index = offset + result.index
        if index < window.analysis_start:
            return DetectorDecision.quiet("split predates the analysis window")
        if result.magnitude <= 0:
            return DetectorDecision.quiet("split is a decrease")
        return DetectorDecision(
            fired=True,
            index=index,
            magnitude=float(result.magnitude),
            score=float(result.statistic),
            detail=f"energy split p={result.p_value:.3f}",
        )


class DPChangePointDetector(Detector):
    """Normal-loss DP split validated by the likelihood-ratio test."""

    type_name = "dp_change"
    version = 1

    def params(self) -> Mapping[str, object]:
        return {
            "min_segment": DP_MIN_SEGMENT,
            "significance_level": DP_SIGNIFICANCE_LEVEL,
            "context_points": CONTEXT_POINTS,
        }

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        x, offset = _with_context(window)
        split = best_split_normal_loss(x, min_segment=DP_MIN_SEGMENT)
        if split is None:
            return DetectorDecision.quiet("window too short")
        test = likelihood_ratio_test(x, split.index, significance_level=DP_SIGNIFICANCE_LEVEL)
        if not test.significant:
            return DetectorDecision.quiet(
                f"LRT p={test.p_value:.3f} not significant"
            )
        magnitude = float(np.mean(x[split.index :]) - np.mean(x[: split.index]))
        index = offset + split.index
        if index < window.analysis_start:
            return DetectorDecision.quiet("split predates the analysis window")
        if magnitude <= 0:
            return DetectorDecision.quiet("split is a decrease")
        return DetectorDecision(
            fired=True,
            index=index,
            magnitude=magnitude,
            score=float(split.gain),
            detail=f"normal-loss split, LRT p={test.p_value:.3g}",
        )


class MADDetector(Detector):
    """Robust preset: a persistent run above ``median + k * MAD``.

    The fire level derives entirely from the historic baseline via the
    MAD threshold (:mod:`repro.stats.robust` semantics:
    ``MAD_COEFFICIENT * MAD * 1.4826``); a run of
    :data:`MIN_RUN` consecutive exceedances in analysis+extended fires.  A
    zero-dispersion baseline is treated as unscannable rather than
    letting every noise point exceed the median.
    """

    type_name = "mad"
    version = 1

    def params(self) -> Mapping[str, object]:
        return {"coefficient": MAD_COEFFICIENT, "min_run": MIN_RUN}

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        baseline = window.historic
        if baseline.size == 0:
            return DetectorDecision.quiet("no baseline")
        median = float(np.median(baseline))
        scale = mad_threshold(baseline, MAD_COEFFICIENT)
        if scale <= 0.0:
            return DetectorDecision.quiet("baseline has zero dispersion")
        level = median + scale
        tail = np.concatenate([window.analysis, window.extended])
        start = _first_run(tail > level, MIN_RUN)
        if start is None:
            return DetectorDecision.quiet(f"no {MIN_RUN}-point run above {level:.3g}")
        index = window.analysis_start + start
        magnitude = float(np.mean(tail[start:]) - median)
        return DetectorDecision(
            fired=True,
            index=index,
            magnitude=magnitude,
            score=magnitude / scale,
            detail=f"run above median + {MAD_COEFFICIENT} MAD",
        )


class ThresholdDetector(Detector):
    """Static absolute level with a persistence run — the ops alarm."""

    type_name = "threshold"
    version = 1

    def __init__(self, level: float) -> None:
        self.level = level

    def params(self) -> Mapping[str, object]:
        return {"level": self.level, "min_run": MIN_RUN}

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        tail = np.concatenate([window.analysis, window.extended])
        start = _first_run(tail > self.level, MIN_RUN)
        if start is None:
            return DetectorDecision.quiet(f"no {MIN_RUN}-point run above {self.level:.3g}")
        magnitude = float(np.mean(tail[start:]) - self.level)
        return DetectorDecision(
            fired=True,
            index=window.analysis_start + start,
            magnitude=magnitude,
            score=magnitude / self.level if self.level else magnitude,
            detail=f"run above static level {self.level:.3g}",
        )


def default_suite() -> List[Detector]:
    """One of each built-in detector, tuned for the bench corpora.

    Returns:
        Five detectors — incumbent (at the fig8 bench threshold),
        e_divisive, dp_change, mad, and threshold (5% over the 0.001
        baseline the static presets key off) — each carrying its
        param-hash ID.
    """
    return [
        IncumbentDetector(threshold=0.000004),
        EDivisiveDetector(),
        DPChangePointDetector(),
        MADDetector(),
        ThresholdDetector(level=0.001 * 1.05),
    ]
