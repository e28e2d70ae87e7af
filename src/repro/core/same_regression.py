"""SameRegressionMerger: dedup across overlapping analysis windows.

FBDetect re-runs periodically (every "re-run interval" of Table 1) with
analysis windows that overlap, so one regression surfaces in several
consecutive runs.  SameRegressionMerger (Table 3) drops a newly detected
regression when a prior run already reported the same metric regressing
at (approximately) the same change time with a similar magnitude.
"""

from __future__ import annotations

from repro.core.types import DetectionVerdict, FilterReason, MonitorState, Regression

__all__ = ["SameRegressionMerger"]

#: Relative magnitude difference below which two reports are the same
#: regression.
MAGNITUDE_TOLERANCE = 0.5


class SameRegressionMerger:
    """Same-regression filter across detection runs; its ledger is the
    monitor's (:attr:`~repro.core.types.MonitorState.seen`).

    Args:
        time_tolerance: Change times within this many seconds count as
            the same change.
    """

    def __init__(self, time_tolerance: float = 3600.0) -> None:
        self.time_tolerance = time_tolerance

    def check(self, regression: Regression, state: MonitorState) -> DetectionVerdict:
        """Drop duplicates of regressions in ``state``'s ledger.

        New (non-duplicate) regressions are recorded there for future runs.
        """
        priors = state.seen.setdefault(regression.context.metric_id, [])
        for change_time, magnitude in priors:
            if abs(change_time - regression.change_time) > self.time_tolerance:
                continue
            if self._similar_magnitude(magnitude, regression.magnitude):
                return DetectionVerdict.drop(
                    FilterReason.SAME_REGRESSION,
                    detail=(
                        f"already reported at t={change_time:.0f} "
                        f"with magnitude {magnitude:.3g}"
                    ),
                )
        priors.append((regression.change_time, regression.magnitude))
        return DetectionVerdict.keep()

    def forget_before(self, state: MonitorState, cutoff: float) -> None:
        """Drop from ``state``'s ledger the priors no regression changing
        at or after ``cutoff`` can match, and the metrics left with none."""
        for metric, priors in list(state.seen.items()):
            kept = [prior for prior in priors if cutoff - prior[0] <= self.time_tolerance]
            if kept:
                state.seen[metric] = kept
            else:
                del state.seen[metric]

    def _similar_magnitude(self, a: float, b: float) -> bool:
        scale = max(abs(a), abs(b))
        if scale == 0:
            return True
        return abs(a - b) / scale <= MAGNITUDE_TOLERANCE
