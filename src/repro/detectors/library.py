"""The built-in detector library and the suite that scores it.

Five detectors spanning the approaches the literature disagrees on
(BIPeC's premise — arXiv 2408.12414 — is that no single change-point
analyzer wins everywhere), and :func:`default_suite`, one of each as the
scorecard runs them:

- :class:`IncumbentDetector` — the paper's own stack (CUSUM+EM screen,
  went-away predicate, seasonality filter, threshold) wrapped as a
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
no per-detector offset bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.change_point import ChangePointDetector
from repro.core.seasonality import SeasonalityDetector
from repro.core.went_away import WentAwayDetector
from repro.detectors.base import Detector, DetectorDecision, DetectorWindow
from repro.stats.changepoint_dp import best_split_normal_loss
from repro.stats.e_divisive import e_divisive_test
from repro.stats.hypothesis import likelihood_ratio_test
from repro.stats.robust import mad_threshold
from repro.tsdb.windows import WindowSpec, WindowedView

__all__ = [
    "DPChangePointDetector",
    "EDivisiveDetector",
    "IncumbentDetector",
    "MADDetector",
    "ThresholdDetector",
    "default_suite",
]


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
    """The paper's short-term pipeline as a detector unit.

    Runs the same stage chain the production scan runs on a window —
    CUSUM+EM change-point screen, went-away predicate, seasonality
    filter, absolute-magnitude threshold — so a scorecard always
    includes the stack challengers must beat.
    """

    type_name = "incumbent"
    version = 1

    def __init__(
        self,
        threshold: float = 0.00002,
        significance_level: float = 0.01,
        min_segment: int = 3,
        went_away: bool = True,
        seasonality: bool = True,
    ) -> None:
        self.threshold = threshold
        self.significance_level = significance_level
        self.min_segment = min_segment
        self.went_away = went_away
        self.seasonality = seasonality
        self._change_points = ChangePointDetector(
            significance_level=significance_level, min_segment=min_segment
        )
        self._went_away = WentAwayDetector()
        self._seasonality = SeasonalityDetector()

    def params(self) -> Mapping[str, object]:
        return {
            "threshold": self.threshold,
            "significance_level": self.significance_level,
            "min_segment": self.min_segment,
            "went_away": self.went_away,
            "seasonality": self.seasonality,
        }

    @staticmethod
    def _as_view(window: DetectorWindow) -> WindowedView:
        """A synthetic 1-second-per-point :class:`WindowedView`.

        The stage detectors only read the value arrays, but their API
        takes a view; the time geometry just has to be self-consistent.
        """
        nh, na = window.historic.size, window.analysis.size
        h, a, e = float(max(nh, 1)), float(max(na, 1)), float(window.extended.size)
        values = np.concatenate([window.historic, window.analysis, window.extended])
        return WindowedView(
            spec=WindowSpec(historic=h, analysis=a, extended=e),
            now=h + a + e,
            times=np.arange(values.size, dtype=float),
            values=values,
            analysis_at=nh,
            extended_at=nh + na,
        )

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        candidate = self._change_points.detect_increase(window.analysis)
        if candidate is None:
            return DetectorDecision.quiet("no significant change point")
        view = self._as_view(window)
        if self.went_away:
            verdict = self._went_away.check(view, candidate)
            if not verdict.passed:
                return DetectorDecision.quiet(verdict.detail)
        if self.seasonality:
            verdict = self._seasonality.check(view, candidate)
            if not verdict.passed:
                return DetectorDecision.quiet(verdict.detail)
        if candidate.magnitude < self.threshold:
            return DetectorDecision.quiet(
                f"magnitude {candidate.magnitude:.3g} below threshold"
            )
        return DetectorDecision(
            fired=True,
            index=window.analysis_start + candidate.index,
            magnitude=float(candidate.magnitude),
            score=float(candidate.p_value),
            detail="pipeline chain kept the candidate",
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

    def __init__(
        self,
        min_segment: int = 8,
        n_permutations: int = 99,
        alpha: float = 0.05,
        context_points: int = 100,
        max_points: int = 256,
        seed: int = 1,
    ) -> None:
        self.min_segment = min_segment
        self.n_permutations = n_permutations
        self.alpha = alpha
        self.context_points = context_points
        self.max_points = max_points
        self.seed = seed

    def params(self) -> Mapping[str, object]:
        return {
            "min_segment": self.min_segment,
            "n_permutations": self.n_permutations,
            "alpha": self.alpha,
            "context_points": self.context_points,
            "max_points": self.max_points,
            "seed": self.seed,
        }

    def _clipped(self, window: DetectorWindow) -> Tuple[np.ndarray, int]:
        """(series to scan, global index of its first point)."""
        tail = window.historic[-self.context_points :] if self.context_points else (
            window.historic[:0]
        )
        x = np.concatenate([tail, window.analysis, window.extended])
        offset = window.historic.size - tail.size
        if x.size > self.max_points:
            clip = x.size - self.max_points
            x = x[clip:]
            offset += clip
        return x, offset

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        x, offset = self._clipped(window)
        result = e_divisive_test(
            x,
            min_segment=self.min_segment,
            n_permutations=self.n_permutations,
            alpha=self.alpha,
            seed=self.seed,
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

    def __init__(
        self,
        min_segment: int = 5,
        significance_level: float = 0.01,
        context_points: int = 100,
    ) -> None:
        self.min_segment = min_segment
        self.significance_level = significance_level
        self.context_points = context_points

    def params(self) -> Mapping[str, object]:
        return {
            "min_segment": self.min_segment,
            "significance_level": self.significance_level,
            "context_points": self.context_points,
        }

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        tail = window.historic[-self.context_points :] if self.context_points else (
            window.historic[:0]
        )
        x = np.concatenate([tail, window.analysis, window.extended])
        offset = window.historic.size - tail.size
        split = best_split_normal_loss(x, min_segment=self.min_segment)
        if split is None:
            return DetectorDecision.quiet("window too short")
        test = likelihood_ratio_test(
            x, split.index, significance_level=self.significance_level
        )
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
    ``coefficient * MAD * 1.4826``); a run of
    ``min_run`` consecutive exceedances in analysis+extended fires.  A
    zero-dispersion baseline is treated as unscannable rather than
    letting every noise point exceed the median.
    """

    type_name = "mad"
    version = 1

    def __init__(self, coefficient: float = 3.0, min_run: int = 5) -> None:
        self.coefficient = coefficient
        self.min_run = min_run

    def params(self) -> Mapping[str, object]:
        return {"coefficient": self.coefficient, "min_run": self.min_run}

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        baseline = window.historic
        if baseline.size == 0:
            return DetectorDecision.quiet("no baseline")
        median = float(np.median(baseline))
        scale = mad_threshold(baseline, self.coefficient)
        if scale <= 0.0:
            return DetectorDecision.quiet("baseline has zero dispersion")
        level = median + scale
        tail = np.concatenate([window.analysis, window.extended])
        start = _first_run(tail > level, self.min_run)
        if start is None:
            return DetectorDecision.quiet(
                f"no {self.min_run}-point run above {level:.3g}"
            )
        index = window.analysis_start + start
        magnitude = float(np.mean(tail[start:]) - median)
        return DetectorDecision(
            fired=True,
            index=index,
            magnitude=magnitude,
            score=magnitude / scale,
            detail=f"run above median + {self.coefficient} MAD",
        )


class ThresholdDetector(Detector):
    """Static absolute level with a persistence run — the ops alarm."""

    type_name = "threshold"
    version = 1

    def __init__(self, level: float, min_run: int = 5) -> None:
        self.level = level
        self.min_run = min_run

    def params(self) -> Mapping[str, object]:
        return {"level": self.level, "min_run": self.min_run}

    def scan(self, window: DetectorWindow) -> DetectorDecision:
        tail = np.concatenate([window.analysis, window.extended])
        start = _first_run(tail > self.level, self.min_run)
        if start is None:
            return DetectorDecision.quiet(
                f"no {self.min_run}-point run above {self.level:.3g}"
            )
        magnitude = float(np.mean(tail[start:]) - self.level)
        return DetectorDecision(
            fired=True,
            index=window.analysis_start + start,
            magnitude=magnitude,
            score=magnitude / self.level if self.level else magnitude,
            detail=f"run above static level {self.level:.3g}",
        )


def default_suite(
    threshold: float = 0.000004,
    base: float = 0.001,
    overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> List[Detector]:
    """One of each built-in detector, tuned for the bench corpora.

    Args:
        threshold: Incumbent magnitude threshold (the fig8 bench value).
        base: Baseline level the static presets key off.
        overrides: Per-type parameter overrides merged over the
            defaults, e.g. ``{"e_divisive": {"n_permutations": 29}}``.

    Returns:
        Five detectors — incumbent, e_divisive, dp_change, mad,
        threshold — each carrying its param-hash ID.
    """
    params: Dict[type, Dict[str, object]] = {
        IncumbentDetector: {"threshold": threshold},
        EDivisiveDetector: {},
        DPChangePointDetector: {},
        MADDetector: {},
        ThresholdDetector: {"level": base * 1.05},
    }
    by_name = {cls.type_name: cls for cls in params}
    for type_name, extra in (overrides or {}).items():
        if type_name not in by_name:
            raise KeyError(f"unknown detector type in overrides: {type_name!r}")
        params[by_name[type_name]].update(extra)
    return [cls(**cls_params) for cls, cls_params in params.items()]
