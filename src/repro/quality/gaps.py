"""Gap-aware detection support: window coverage and staleness.

Quarantined points never reach the TSDB, and crashed hosts simply stop
reporting — both manifest to detection as *gaps*.  A change-point scan
over a window that is mostly gap compares a handful of surviving points
against history and fires false positives, so the pipeline consults a
:class:`QualityGate` before scanning:

- **Coverage**: the fraction of expected points actually present in the
  window, where "expected" comes from the series' own cadence (median
  inter-arrival spacing over the historic window — no configuration to
  drift out of sync with the fleet).  Windows below :data:`MIN_COVERAGE`
  are suppressed and tallied, not scanned.
- **Staleness**: a series whose newest point is more than
  :data:`STALE_AFTER_ANALYSIS_WINDOWS` analysis-spans behind ``now`` has
  stopped reporting; it is evicted from scanning entirely until new
  data resumes, so dead hosts cost nothing per tick.

The gate is stateless and picklable — everything it needs arrives per
call and its thresholds are the module constants below, so it is shared
safely across monitors and shard processes.  Whether a pipeline has one
at all is the choice: offline runs scan gap-blind, the service's
monitors default to a gate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["QualityGate", "window_coverage"]

#: Scan windows with coverage below this are suppressed (counted, not
#: alerted).
MIN_COVERAGE = 0.5
#: A series whose newest point lags ``now`` by more than this many
#: analysis-window spans is evicted from scanning until it resumes.
STALE_AFTER_ANALYSIS_WINDOWS = 3.0
#: Minimum historic points needed to estimate cadence; below it the gate
#: abstains (scan proceeds) rather than judge coverage from noise.
MIN_CADENCE_POINTS = 8


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


class QualityGate:
    """Gap-aware scanning: coverage and staleness judged against the
    module's thresholds."""

    def cadence(self, timestamps: Sequence[float]) -> Optional[float]:
        """Median inter-arrival spacing, or None when too few points.

        On a regular grid every positive gap is the same one, and that gap
        is what ``np.median`` returns (``(g + g) / 2 == g`` while ``g + g``
        stays finite), so the partition is only paid for irregular columns.
        """
        if len(timestamps) < MIN_CADENCE_POINTS:
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
        return (now - last_timestamp) > STALE_AFTER_ANALYSIS_WINDOWS * analysis_span

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
        return coverage >= MIN_COVERAGE, coverage
