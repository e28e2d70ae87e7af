"""Pearson correlation with time-alignment helpers.

Used by PairwiseDedup (§5.5.2) to score time-series similarity between
regressions, and by root-cause analysis (§5.6) to correlate setup metrics
with a regression's timing.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


#: Fewest shared timestamps :func:`aligned_pearson` scores.
MIN_OVERLAP = 3


def aligned_pearson(a: Mapping[float, float], b: Mapping[float, float]) -> float:
    """Pearson correlation over the timestamps two series share.

    Production series rarely sample at identical instants; this aligns two
    ``{timestamp: value}`` mappings on their common timestamps first.  A
    handful of shared points says nothing about two long series, so the
    shared timestamps must cover at least half of the shorter mapping, and
    at least :data:`MIN_OVERLAP` points.

    Args:
        a: First series as a timestamp-to-value mapping.
        b: Second series.

    Returns:
        The correlation, or 0.0 when overlap is insufficient.
    """
    shared = sorted(set(a) & set(b))
    if len(shared) < max(MIN_OVERLAP, min(len(a), len(b)) / 2):
        return 0.0
    return pearson([a[t] for t in shared], [b[t] for t in shared])
