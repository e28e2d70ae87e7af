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
    "sorted_medians",
    "sorted_percentile",
    "sorted_percentiles",
    "NORMALITY_CONSTANT",
]

#: Scale factor making MAD a consistent estimator of the standard
#: deviation under normality (the paper's "normality constant").
NORMALITY_CONSTANT = 1.4826


def sorted_medians(sorted_rows: np.ndarray, n) -> np.ndarray:
    """``np.median`` of the first ``n`` values of each row of sorted rows.

    ``n`` is one length for every row (the middle is then a column) or one
    per row, whose shorter rows are padded with +inf.  A NaN sorts last, so
    a row holding one has it in its last column, and its median is NaN.
    """
    k, width = sorted_rows.shape
    if not width:
        return np.full(k, np.nan)
    half = n // 2
    if isinstance(n, int):
        upper = sorted_rows[:, half]
        middle = upper if n % 2 else (sorted_rows[:, half - 1] + upper) / 2
    else:
        flat, start = sorted_rows.ravel(), np.arange(0, k * width, width)
        upper = flat[start + np.minimum(half, width - 1)]
        lower = flat[start + np.maximum(half - 1, 0)]
        middle = np.where(n % 2 == 1, upper, (lower + upper) / 2)
    end = sorted_rows[:, -1]
    return np.where(end != end, np.nan, middle)


def sorted_percentiles(sorted_rows: np.ndarray, n, q: float) -> np.ndarray:
    """``np.percentile(row[:n], q)`` of each sorted row, by NumPy's steps.

    Virtual index ``(n - 1) * (q / 100)``, both neighbours the last point
    once it reaches ``n - 1``, then ``_lerp``: ``a + d * g``, or
    ``b - d * (1 - g)`` at ``g >= 0.5``.  ``n`` and NaN as for
    :func:`sorted_medians`.
    """
    k, width = sorted_rows.shape
    if not width:
        return np.full(k, np.nan)
    virtual = (n - 1) * (q / 100)
    end = virtual >= n - 1  # both neighbours the last point, at index -1
    if isinstance(n, int):  # one length: the neighbours are columns
        lower = n - 1 if end else int(virtual)
        gamma = virtual - (-1 if end else lower)
        below, above = sorted_rows[:, lower], sorted_rows[:, lower if end else lower + 1]
    else:
        lower = np.where(end, -1, np.floor(virtual)).astype(np.intp)
        gamma = virtual - lower
        lower = np.where(end, n - 1, lower)
        flat, start = sorted_rows.ravel(), np.arange(0, k * width, width)
        below = flat[start + np.minimum(np.maximum(lower, 0), width - 1)]
        above = flat[start + np.minimum(np.where(end, lower, lower + 1), width - 1)]
    diff = above - below
    value = np.where(gamma >= 0.5, above - diff * (1 - gamma), below + diff * gamma)
    last = sorted_rows[:, -1]
    return np.where(last != last, np.nan, value)


def sorted_median(s: np.ndarray) -> float:
    """``np.median`` of a non-empty window off its ``np.sort`` copy: the
    one-row view of :func:`sorted_medians`."""
    return float(sorted_medians(s[None, :], s.size)[0])


def sorted_percentile(s: np.ndarray, q: float) -> float:
    """``np.percentile(window, q)`` of a non-empty window off its sorted
    copy: the one-row view of :func:`sorted_percentiles`."""
    return float(sorted_percentiles(s[None, :], s.size, q)[0])


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
