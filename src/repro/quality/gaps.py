"""Gap-aware detection support: window coverage and staleness.

Quarantined points never reach the TSDB, and crashed hosts simply stop
reporting — both manifest to detection as *gaps*.  A change-point scan
over a window that is mostly gap compares a handful of surviving points
against history and fires false positives, so the pipeline consults a
:class:`QualityGate` before scanning:

- **Coverage**: the fraction of expected points actually present in the
  window, where "expected" comes from the series' own cadence (median
  inter-arrival spacing over the historic window — no configuration to
  drift out of sync with the fleet).  Windows below ``min_coverage``
  are suppressed and tallied, not scanned.
- **Staleness**: a series whose newest point is more than
  ``stale_after_analysis_windows`` analysis-spans behind ``now`` has
  stopped reporting; it is evicted from scanning entirely until new
  data resumes, so dead hosts cost nothing per tick.

The gate is stateless and picklable — everything it needs arrives per
call, so it is shared safely across monitors and shard processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["QualityGate", "window_coverage"]


def window_coverage(
    present: int,
    start: float,
    end: float,
    cadence: float,
) -> float:
    """Fraction of expected points present in ``[start, end)``.

    Args:
        present: How many points actually arrived in the window.
        start: Window start (inclusive).
        end: Window end (exclusive).
        cadence: Expected inter-arrival spacing, seconds.

    Returns:
        ``present / ((end - start) / cadence)`` clamped to ``[0, 1]``;
        ``1.0`` when the window or cadence is degenerate (nothing
        meaningful to expect).
    """
    if cadence <= 0.0 or end <= start:
        return 1.0
    expected = (end - start) / cadence
    if expected < 1.0:
        return 1.0
    return min(1.0, present / expected)


@dataclass(frozen=True)
class QualityGate:
    """Suppression thresholds for gap-aware scanning.

    Attributes:
        min_coverage: Scan windows with coverage below this are
            suppressed (counted, not alerted).
        stale_after_analysis_windows: A series whose newest point lags
            ``now`` by more than this many analysis-window spans is
            evicted from scanning until it resumes.
        min_cadence_points: Minimum historic points needed to estimate
            cadence; below it the gate abstains (scan proceeds) rather
            than judge coverage from noise.
    """

    min_coverage: float = 0.5
    stale_after_analysis_windows: float = 3.0
    min_cadence_points: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.min_coverage <= 1.0:
            raise ValueError("min_coverage must be in (0, 1]")
        if self.stale_after_analysis_windows <= 0.0:
            raise ValueError("stale_after_analysis_windows must be positive")
        if self.min_cadence_points < 2:
            raise ValueError("min_cadence_points must be >= 2")

    def cadence(self, timestamps: Sequence[float]) -> Optional[float]:
        """Median inter-arrival spacing, or None when too few points.

        On a regular grid every positive gap is the same one, and that gap
        is what ``np.median`` returns (``(g + g) / 2 == g`` while ``g + g``
        stays finite), so the partition is only paid for irregular columns.
        """
        if len(timestamps) < self.min_cadence_points:
            return None
        deltas = np.diff(np.asarray(timestamps, dtype=float))
        deltas = deltas[deltas > 0]
        if deltas.size == 0:
            return None
        low, high = deltas.min(), deltas.max()
        if low == high and low + low < np.inf:
            return float(low)
        return float(np.median(deltas))

    def is_stale(self, last_timestamp: float, now: float, analysis_span: float) -> bool:
        """True when the series stopped reporting and should be evicted."""
        if analysis_span <= 0.0:
            return False
        return (now - last_timestamp) > self.stale_after_analysis_windows * analysis_span

    def window_ok(
        self,
        historic_timestamps: Sequence[float],
        present: int,
        start: float,
        end: float,
    ) -> Tuple[bool, float]:
        """Judge one scan window.

        Cadence comes from ``historic_timestamps`` (the stable past);
        coverage is ``present`` points measured against expectation
        over ``[start, end)``.

        Returns:
            ``(ok, coverage)`` — ``ok`` is False when the window should
            be suppressed.  Abstains (``(True, 1.0)``) when history is
            too short to estimate cadence.
        """
        spacing = self.cadence(historic_timestamps)
        if spacing is None:
            return True, 1.0
        coverage = window_coverage(present, start, end, spacing)
        return coverage >= self.min_coverage, coverage
