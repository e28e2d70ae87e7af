"""Seasonality detector (§5.2.3).

Removes seasonality and re-checks whether a regression persists: if the
regression disappears once the seasonal component is subtracted, it was a
false positive caused by seasonality.

Procedure: detect seasonality presence via the autocorrelation function;
if present, STL-decompose, drop the seasonal part, and compute a pseudo
z-score of the mean shift of (trend + residual) around the change point,
normalized by the residual's standard deviation.  The z-score must clear
the threshold in both the analysis window and the extended window for the
regression to stand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.change_point import ChangePointCandidate
from repro.core.types import DetectionVerdict, FilterReason
from repro.stats.autocorrelation import detect_season_length
from repro.stats.stl import stl_decompose
from repro.tsdb.windows import WindowedView

__all__ = ["SeasonalityDetector"]

#: Minimum pseudo z-score for the deseasonalized shift to count as a real
#: regression (a float: the audit trail prints it).
Z_THRESHOLD = 2.0
#: Smallest season length considered.
MIN_PERIOD = 4


class SeasonalityDetector:
    """STL-based seasonality false-positive filter.

    Args:
        known_period: Optional externally known season length (e.g. one
            day in samples); skips ACF-based detection when provided.
    """

    def __init__(self, known_period: Optional[int] = None) -> None:
        self.known_period = known_period

    def check(
        self,
        view: WindowedView,
        candidate: ChangePointCandidate,
    ) -> DetectionVerdict:
        """Keep the regression unless deseasonalizing makes it vanish."""
        full = view.full
        period = self.known_period or detect_season_length(
            full, min_period=MIN_PERIOD
        )
        if period is None or full.size < 2 * period:
            return DetectionVerdict.keep(detail="no significant seasonality")

        # Change-point position within the full (historic+analysis+extended)
        # series: historic points precede the analysis window.
        change_full = view.historic.size + candidate.index

        z_analysis = self._zscore(
            full[: view.historic.size + view.analysis.size], change_full, period
        )
        if z_analysis is not None and z_analysis < Z_THRESHOLD:
            return DetectionVerdict.drop(
                FilterReason.SEASONALITY,
                detail=f"analysis-window z-score {z_analysis:.2f} < {Z_THRESHOLD}",
            )
        if view.extended.size > 0:
            z_extended = self._zscore(full, change_full, period)
            if z_extended is not None and z_extended < Z_THRESHOLD:
                return DetectionVerdict.drop(
                    FilterReason.SEASONALITY,
                    detail=f"extended-window z-score {z_extended:.2f} < {Z_THRESHOLD}",
                )
        detail = f"deseasonalized z-score >= {Z_THRESHOLD} (period={period})"
        return DetectionVerdict.keep(detail=detail)

    def _zscore(self, series: np.ndarray, changepoint: int, period: int) -> Optional[float]:
        """Pseudo z-score of the deseasonalized shift around ``changepoint``.

        ``(median(after) - median(before)) / std(residual)`` where before
        and after are the deseasonalized (trend + residual) segments.
        Returns ``None`` when the decomposition or split is infeasible.
        """
        if series.size < 2 * period or not 0 < changepoint < series.size:
            return None
        try:
            decomposition = stl_decompose(series, period)
        except ValueError:
            return None
        clean = decomposition.deseasonalized
        before, after = clean[:changepoint], clean[changepoint:]
        if before.size == 0 or after.size == 0:
            return None
        residual_std = float(decomposition.residual.std())
        if residual_std <= 0:
            return None
        shift = float(np.median(after) - np.median(before))
        return shift / residual_std
