"""Expectation-Maximization refinement of a mean-split change point.

The paper's change-point detector (§5.2.1) iterates CUSUM and EM "until it
converges at the change point with the maximum likelihood of having
different means before and after the change point, or until it uses up the
computation time."

We model the series as a two-segment Gaussian mixture ordered in time:
points before the change point are drawn from ``N(mu0, sigma^2)`` and
points after from ``N(mu1, sigma^2)``.  Given a candidate split the M-step
re-estimates the two means; the E-step then moves the split to the index
that maximizes the joint log-likelihood of the ordered assignment.  The
procedure is a coordinate ascent on the split location; because the
likelihood of a split does not depend on the current one, it converges in
a single sweep over the admissible splits.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["em_mean_split", "em_split_rows"]


def em_split_rows(
    rows: np.ndarray, initial: np.ndarray, min_segment: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    """The EM sweep of every row of a ``(k, n)`` matrix at once.

    Args:
        rows: C-contiguous ``(k, n)`` series, ``n >= 2 * min_segment``.
        initial: Starting split per row (first index of the post-change
            segment), clipped to leave ``min_segment`` points each side.
        min_segment: Minimum points on each side of the split.

    Returns:
        ``(index, log_likelihood)`` arrays of the converged splits.
        Every step is elementwise or a cumulative sum / ``argmax`` along
        a contiguous row, so each row's result is the bits that row gets
        alone (:func:`em_mean_split` is the one-row view).
    """
    k, n = rows.shape
    prefix = np.zeros((k, n + 1))
    prefix_sq = np.zeros((k, n + 1))
    np.cumsum(rows, axis=1, out=prefix[:, 1:])
    np.cumsum(rows * rows, axis=1, out=prefix_sq[:, 1:])

    lo, hi = min_segment, n - min_segment
    t = np.clip(initial, lo, hi)

    # Gaussian log-likelihood (pooled variance) of every admissible split,
    # O(1) each from the prefix sums; terms shared by all splits dropped.
    n1 = np.arange(lo, hi + 1)
    s1, q1 = prefix[:, lo : hi + 1], prefix_sq[:, lo : hi + 1]
    s2, q2 = prefix[:, n:] - s1, prefix_sq[:, n:] - q1
    # Residual sum of squares around each segment mean.
    rss = (q1 - s1 * s1 / n1) + (q2 - s2 * s2 / (n - n1))
    loglik = -0.5 * n * np.log(np.maximum(rss / n, 1e-30))

    # The E-step moves to the most likely split under the segment-mean
    # model; the M-step (the two means) is implicit in ``loglik``, which
    # therefore does not depend on ``t``: one sweep is the whole ascent.
    # ``not <=`` rather than ``>`` so a NaN likelihood moves too.
    row = np.arange(k)
    best = lo + np.argmax(loglik, axis=1)
    move = ~(loglik[row, best - lo] <= loglik[row, t - lo] + 1e-12)
    t = np.where(move, best, t)
    return t, loglik[row, t - lo]


def em_mean_split(
    values: Sequence[float],
    initial_index: Optional[int] = None,
    min_segment: int = 2,
) -> Optional[Tuple[int, float]]:
    """Refine a change-point index by EM-style coordinate ascent.

    Args:
        values: The time series.
        initial_index: Starting split (first index of the post-change
            segment), clipped to leave ``min_segment`` points on each
            side.  Defaults to the midpoint.
        min_segment: Minimum points on each side of the split.

    Returns:
        ``(index, log_likelihood)`` of the converged split, or ``None``
        when the series is too short.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_segment:
        return None
    start = initial_index if initial_index is not None else n // 2
    index, loglik = em_split_rows(x[None, :], np.array([start]), min_segment)
    return int(index[0]), float(loglik[0])
