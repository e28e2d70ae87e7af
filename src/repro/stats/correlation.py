"""Pearson correlation with time-alignment helpers.

Used by PairwiseDedup (§5.5.2) to score time-series similarity between
regressions, and by root-cause analysis (§5.6) to correlate setup metrics
with a regression's timing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["pearson", "aligned_pearson"]


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length series.

    Returns 0.0 when either series is constant (correlation undefined).

    Raises:
        ValueError: On length mismatch or fewer than 2 points.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("pearson requires at least 2 points")
    # Each side centred once; np.std takes the same mean and squares.
    dx, dy = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt(np.mean(dx * dx)), np.sqrt(np.mean(dy * dy))
    if sx == 0 or sy == 0:
        return 0.0
    return float((dx * dy).mean() / (sx * sy))


#: Fewest shared timestamps :func:`aligned_pearson` scores.
MIN_OVERLAP = 3


def aligned_pearson(
    a_times: np.ndarray, a_values: np.ndarray, b_times: np.ndarray, b_values: np.ndarray
) -> float:
    """Pearson correlation over the timestamps two series share.

    Production series rarely sample at identical instants; this aligns two
    series on their common timestamps first.  A handful of shared points
    says nothing about two long series, so the shared timestamps must cover
    at least half of the shorter series, and at least :data:`MIN_OVERLAP`
    points.

    Args:
        a_times: First series' timestamps, ascending and distinct (the
            TSDB stores one sample per timestamp).
        a_values: Its values, one per timestamp.
        b_times: Second series' timestamps, likewise.
        b_values: Its values.

    Returns:
        The correlation, or 0.0 when overlap is insufficient.
    """
    # The shared timestamps come out ascending: the pairs pearson sees are
    # in time order.
    shared, ia, ib = np.intersect1d(a_times, b_times, assume_unique=True, return_indices=True)
    if shared.size < max(MIN_OVERLAP, min(len(a_times), len(b_times)) / 2):
        return 0.0
    return pearson(a_values[ia], b_values[ib])
