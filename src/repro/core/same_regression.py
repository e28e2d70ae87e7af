"""SameRegressionMerger: dedup across overlapping analysis windows.

FBDetect re-runs periodically (every "re-run interval" of Table 1) with
analysis windows that overlap, so one regression surfaces in several
consecutive runs.  SameRegressionMerger (Table 3) drops a newly detected
regression when a prior run already reported the same metric regressing
at (approximately) the same change time with a similar magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.types import DetectionVerdict, FilterReason, Regression

__all__ = ["SameRegressionMerger"]

#: Relative magnitude difference below which two reports are the same
#: regression.
MAGNITUDE_TOLERANCE = 0.5


@dataclass
class _PriorRegression:
    change_time: float
    magnitude: float


class SameRegressionMerger:
    """Stateful same-regression filter across detection runs.

    Args:
        time_tolerance: Change times within this many seconds count as
            the same change.
    """

    def __init__(self, time_tolerance: float = 3600.0) -> None:
        self.time_tolerance = time_tolerance
        self._seen: Dict[str, List[_PriorRegression]] = {}

    def check(self, regression: Regression) -> DetectionVerdict:
        """Drop duplicates of previously recorded regressions.

        New (non-duplicate) regressions are recorded for future runs.
        """
        metric = regression.context.metric_id
        priors = self._seen.setdefault(metric, [])
        for prior in priors:
            if abs(prior.change_time - regression.change_time) > self.time_tolerance:
                continue
            if self._similar_magnitude(prior.magnitude, regression.magnitude):
                return DetectionVerdict.drop(
                    FilterReason.SAME_REGRESSION,
                    detail=(
                        f"already reported at t={prior.change_time:.0f} "
                        f"with magnitude {prior.magnitude:.3g}"
                    ),
                )
        priors.append(
            _PriorRegression(
                change_time=regression.change_time, magnitude=regression.magnitude
            )
        )
        return DetectionVerdict.keep()

    def _similar_magnitude(self, a: float, b: float) -> bool:
        scale = max(abs(a), abs(b))
        if scale == 0:
            return True
        return abs(a - b) / scale <= MAGNITUDE_TOLERANCE

    def reset(self) -> None:
        """Forget all prior regressions (new evaluation period)."""
        self._seen.clear()
