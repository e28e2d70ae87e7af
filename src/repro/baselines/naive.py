"""Naive change-point detection without transient filtering.

The §1 strawman: "typical change-point detection algorithms would result
in a 99.7% false positive rate in our environment."  This detector flags
any validated change point in the analysis window — no went-away,
seasonality, threshold, or dedup stages — so transient issues all become
reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.change_point import ChangePointCandidate, ChangePointDetector

__all__ = ["NaiveChangePointDetector"]

#: LRT rejection level.
SIGNIFICANCE_LEVEL = 0.01


class NaiveChangePointDetector:
    """Reports every statistically significant mean increase at
    :data:`SIGNIFICANCE_LEVEL`."""

    def __init__(self) -> None:
        self._detector = ChangePointDetector(significance_level=SIGNIFICANCE_LEVEL)

    def detect(self, analysis: Sequence[float]) -> Optional[ChangePointCandidate]:
        """The validated change point of ``analysis``, any direction.

        A generic change-point detector has no notion of metric
        orientation or recovery — every statistically significant mean
        shift becomes a report, which is exactly why it floods on
        transients.
        """
        return self._detector.detect(analysis)

    def is_anomalous(self, historic: Sequence[float], analysis: Sequence[float]) -> bool:
        """EGADS-compatible interface; the baseline is ignored entirely."""
        return self.detect(analysis) is not None
