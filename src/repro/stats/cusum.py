"""Cumulative Sum (CUSUM) change-point scoring.

The paper's change-point detector (§5.2.1) applies CUSUM and EM iteratively
to converge on the change point with the maximum likelihood of having
different means before and after it.  This module provides the CUSUM half:
a scan statistic over the cumulative deviations from the series mean whose
extremum marks the most likely single shift in the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CusumResult",
    "cusum_statistic",
    "cusum_split_rows",
    "cusum_changepoint",
]

#: :func:`cusum_changepoint` keeps at least this many points on each side
#: of the split.
MIN_SEGMENT = 2


@dataclass(frozen=True)
class CusumResult:
    """Outcome of a CUSUM scan over a series.

    Attributes:
        index: Index ``t`` of the most likely change point.  The mean is
            estimated over ``x[:t]`` before and ``x[t:]`` after, so ``t`` is
            the first index of the post-change segment.
        statistic: Magnitude of the CUSUM extremum, normalized by the
            series standard deviation (0 when the series is constant).
        mean_before: Sample mean of ``x[:t]``.
        mean_after: Sample mean of ``x[t:]``.
        curve: The raw cumulative-deviation curve (useful for plotting
            and diagnostics).
    """

    index: int
    statistic: float
    mean_before: float
    mean_after: float
    curve: np.ndarray

    @property
    def shift(self) -> float:
        """Signed magnitude of the detected mean shift."""
        return self.mean_after - self.mean_before


def cusum_statistic(values: Sequence[float]) -> np.ndarray:
    """Return the cumulative sum of deviations from the series mean.

    ``S_t = sum_{i<=t} (x_i - mean(x))``.  A single mean shift produces a
    V- or Λ-shaped curve whose extremum locates the shift.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return np.empty(0)
    return np.cumsum(x - x.mean())


def cusum_split_rows(
    centred: np.ndarray, min_segment: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    """The CUSUM proposal of every row of a ``(k, n)`` matrix at once.

    Args:
        centred: Rows already centred on their own means (``x - x.mean()``);
            ``n >= 2 * min_segment``.
        min_segment: Minimum points on each side of a proposed split.

    Returns:
        ``(index, curve)``: per row, the first index of the post-change
        segment, and the cumulative-deviation curves ``(k, n)``.  A
        cumulative sum along a C-contiguous row adds in the order the
        1-D call does, so each row's curve and index are the bits that
        row gets alone (:func:`cusum_changepoint` is the one-row view).
    """
    curve = np.cumsum(centred, axis=1)
    # Restrict the extremum search so both segments have >= min_segment
    # points.  curve index t corresponds to a split between t and t+1, so
    # the post-change segment starts at t+1.
    lo = min_segment - 1
    hi = centred.shape[1] - min_segment
    return lo + np.argmax(np.abs(curve[:, lo:hi]), axis=1) + 1, curve


def cusum_changepoint(values: Sequence[float]) -> Optional[CusumResult]:
    """Locate the most likely single mean-shift change point via CUSUM,
    at least :data:`MIN_SEGMENT` points from either edge.

    Args:
        values: The time series to scan.

    Returns:
        A :class:`CusumResult`, or ``None`` when the series is too short to
        contain a change point with those segment sizes.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < max(2 * MIN_SEGMENT, 1):
        return None

    indices, curves = cusum_split_rows((x - x.mean())[None, :], MIN_SEGMENT)
    index, curve = int(indices[0]), curves[0]

    std = float(x.std())
    stat = float(abs(curve[index - 1]) / (std * np.sqrt(n))) if std > 0 else 0.0
    return CusumResult(
        index=index,
        statistic=stat,
        mean_before=float(x[:index].mean()),
        mean_after=float(x[index:].mean()),
        curve=curve,
    )
