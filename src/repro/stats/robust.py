"""Robust dispersion estimators.

The went-away detector's regression threshold is derived from the Median
Absolute Deviation (MAD) with the Gaussian-consistency constant 1.4826 and
a tunable regression coefficient (default 1.5), i.e.
``threshold = coefficient * median(|x - median(x)|) * 1.4826`` (§5.2.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "mad",
    "mad_threshold",
    "sorted_median",
    "sorted_percentile",
    "NORMALITY_CONSTANT",
]

#: Scale factor making MAD a consistent estimator of the standard
#: deviation under normality (the paper's "normality constant").
NORMALITY_CONSTANT = 1.4826


def sorted_median(s: np.ndarray) -> float:
    """``np.median`` of a non-empty window off its ``np.sort`` copy (a NaN sorts last)."""
    if s[-1] != s[-1]:
        return float("nan")
    half = s.size // 2
    return float(s[half] if s.size % 2 else (s[half - 1] + s[half]) / 2)


def sorted_percentile(s: np.ndarray, q: float) -> float:
    """``np.percentile(window, q)`` of a non-empty window, likewise, by NumPy's steps.

    Virtual index ``(n - 1) * (q / 100)``, both neighbours the last point once it
    reaches ``n - 1``, then ``_lerp``: ``a + d * g``, or ``b - d * (1 - g)`` at ``g >= 0.5``.
    """
    if s[-1] != s[-1]:
        return float("nan")
    virtual = (s.size - 1) * (q / 100)
    lower, upper = (-1, -1) if virtual >= s.size - 1 else (int(virtual), int(virtual) + 1)
    gamma = virtual - lower
    diff = s[upper] - s[lower]
    return float(s[upper] - diff * (1 - gamma) if gamma >= 0.5 else s[lower] + diff * gamma)


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation of ``values`` (unscaled).

    Returns 0.0 for empty input.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return 0.0
    return sorted_median(np.sort(np.abs(x - sorted_median(np.sort(x)))))


def mad_threshold(
    values: Sequence[float],
    coefficient: float = 1.5,
) -> float:
    """Regression threshold used by the went-away detector.

    ``coefficient * MAD * 1.4826`` — the paper's final regression
    threshold with the default sensitivity coefficient of 1.5.

    Args:
        values: Baseline series from which to derive the threshold.
        coefficient: Sensitivity multiplier (paper default 1.5).

    Returns:
        The threshold; 0.0 when the series is constant or empty.
    """
    return coefficient * mad(values) * NORMALITY_CONSTANT
