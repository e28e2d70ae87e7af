"""Long-term regression detection (§5.3).

Focuses on gradual, incremental changes.  Three steps, deliberately
ordered differently from the short-term path:

1. *Seasonality decomposition first* — STL smooths the series, which is
   good for gradual regressions (and bad for sudden ones, which is why
   the short-term path decomposes last).
2. *Regression detection on the trend*: baseline = the larger of the
   means at the start of the analysis window and of the historical
   window; current = the smaller of the means at the end of the analysis
   window and of the extended window.  Report when current - baseline
   exceeds the threshold.
3. *Change-point location*: fit a line to the normalized trend; a small
   RMSE means the change was gradual from the start (change point at the
   trend's beginning); otherwise search with the normal-loss dynamic
   program.

No went-away detector runs — the trend already reflects persistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.seasonality import MIN_PERIOD
from repro.core.types import MetricContext, Regression, RegressionKind
from repro.stats.autocorrelation import detect_season_length
from repro.stats.changepoint_dp import best_split_normal_loss
from repro.stats.stl import loess_smooth, stl_decompose
from repro.tsdb.windows import WindowedView

__all__ = ["LongTermDetector"]

#: Normalized-RMSE bound under which the trend is considered one gradual ramp.
RMSE_THRESHOLD = 0.1
#: Fraction of the window used for the start/end mean estimates.
EDGE_FRACTION = 0.15


@dataclass(frozen=True)
class _TrendSplit:
    """Where and how the long-term change happened."""

    index: int
    gradual: bool


class LongTermDetector:
    """Detects gradual long-term regressions.

    Args:
        threshold: Minimum (current - baseline) trend shift to report.
        known_period: Externally known season length; skips detection
            (else the STL step considers seasons from
            :data:`~repro.core.seasonality.MIN_PERIOD` up).
    """

    def __init__(self, threshold: float, known_period: Optional[int] = None) -> None:
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = threshold
        self.known_period = known_period

    def detect(
        self,
        view: WindowedView,
        context: MetricContext,
        detected_at: float = 0.0,
    ) -> Optional[Regression]:
        """Run the three-step long-term detection on a windowed series."""
        full = view.full
        if full.size < 10:
            return None

        trend = self._trend_of(full)

        baseline, current = self._baseline_and_current(view, trend)
        if current - baseline <= self.threshold:
            return None

        split = self._locate_change(trend)
        # Convert the full-series index into an analysis-window index
        # (clamped: a change point inside the historic window reports at
        # the analysis window's start).
        analysis_index = int(
            np.clip(split.index - view.historic.size, 0, max(0, view.analysis.size - 1))
        )
        return Regression(
            context=context,
            kind=RegressionKind.LONG_TERM,
            change_index=analysis_index,
            change_time=float(view.times[split.index]),
            mean_before=baseline,
            mean_after=current,
            window=view,
            detected_at=detected_at,
            features={"gradual": 1.0 if split.gradual else 0.0},
        )

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def _trend_of(self, series: np.ndarray) -> np.ndarray:
        """STL trend when seasonality is present, else a loess smooth."""
        period = self.known_period or detect_season_length(
            series, min_period=MIN_PERIOD
        )
        if period is not None and series.size >= 2 * period:
            return stl_decompose(series, period).trend
        return loess_smooth(series, span=0.3)

    def _baseline_and_current(
        self, view: WindowedView, trend: np.ndarray
    ) -> tuple:
        """The paper's conservative baseline/current rule on the trend."""
        n_hist = view.historic.size
        n_analysis = view.analysis.size
        hist_trend = trend[:n_hist]
        analysis_trend = trend[n_hist : n_hist + n_analysis]
        extended_trend = trend[n_hist + n_analysis :]

        edge = max(3, int(EDGE_FRACTION * max(1, n_analysis)))
        start_hist = float(hist_trend[:edge].mean()) if hist_trend.size else -np.inf
        start_analysis = (
            float(analysis_trend[:edge].mean()) if analysis_trend.size else -np.inf
        )
        baseline = max(start_hist, start_analysis)

        end_analysis = (
            float(analysis_trend[-edge:].mean()) if analysis_trend.size else np.inf
        )
        end_extended = (
            float(extended_trend[-edge:].mean()) if extended_trend.size else np.inf
        )
        current = min(end_analysis, end_extended)
        return baseline, current

    def _locate_change(self, trend: np.ndarray) -> _TrendSplit:
        """Linear-fit RMSE test, else DP normal-loss split."""
        span = float(trend.max() - trend.min())
        if span <= 0:
            return _TrendSplit(index=0, gradual=True)
        normalized = (trend - trend.min()) / span
        x = np.arange(normalized.size, dtype=float)
        slope, intercept = np.polyfit(x, normalized, 1)
        rmse = float(np.sqrt(np.mean((normalized - (slope * x + intercept)) ** 2)))
        if rmse < RMSE_THRESHOLD:
            return _TrendSplit(index=0, gradual=True)
        split = best_split_normal_loss(trend)
        if split is None:
            return _TrendSplit(index=0, gradual=True)
        return _TrendSplit(index=split.index, gradual=False)
