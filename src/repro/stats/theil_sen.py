"""Theil-Sen robust slope estimation.

When the went-away detector finds a monotonic trend via Mann-Kendall, it
uses Theil-Sen's slope estimator to measure the trend's magnitude and
intercept (§5.2.2).  The estimator is the median of all pairwise slopes,
making it robust to up to ~29% outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.stats.mann_kendall import pair_plan

__all__ = ["TheilSenFit", "theil_sen"]

# Above this length we subsample pairs to bound the O(n^2) pair count;
# the paper's windows are small enough that this rarely triggers.
_EXACT_PAIR_LIMIT = 1000


@dataclass(frozen=True)
class TheilSenFit:
    """A robust linear fit ``y ~ slope * x + intercept``.

    Attributes:
        slope: Median of pairwise slopes.
        intercept: Median of ``y_i - slope * x_i``.
    """

    slope: float
    intercept: float

    def predict(self, x: Sequence[float]) -> np.ndarray:
        """Evaluate the fitted line at ``x``."""
        return self.slope * np.asarray(x, dtype=float) + self.intercept


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty array by one selection, not three: the lower
    middle point is the left part's maximum; a NaN (they sort last) shows in the right's."""
    half = values.size // 2
    part = np.partition(values, half)
    if np.isnan(part[half:].max()):
        return float("nan")
    return float(part[half] if values.size % 2 else (part[:half].max() + part[half]) / 2)


def theil_sen(
    values: Sequence[float],
    x: Optional[Sequence[float]] = None,
) -> TheilSenFit:
    """Fit a Theil-Sen line to ``values``.

    Args:
        values: Dependent variable.
        x: Independent variable; defaults to ``0..n-1``.

    Returns:
        The fitted :class:`TheilSenFit`.

    Raises:
        ValueError: If fewer than 2 points are supplied.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 2:
        raise ValueError("theil_sen requires at least 2 points")
    xs = np.arange(n, dtype=float) if x is None else np.asarray(x, dtype=float)
    if xs.size != n:
        raise ValueError("x and values must have the same length")

    if n <= _EXACT_PAIR_LIMIT:
        # Every pair i < j, as a mask over the n x n difference matrices;
        # with the default abscissa the x differences are the plan's gaps.
        pairs, gaps = pair_plan(n)
        dx = (gaps if x is None else xs[None, :] - xs[:, None])[pairs]
        dy = (y[None, :] - y[:, None])[pairs]
    else:
        rng = np.random.default_rng(0)  # a fixed seed keeps the pair subsample deterministic
        count = _EXACT_PAIR_LIMIT * (_EXACT_PAIR_LIMIT - 1) // 2
        i = rng.integers(0, n, size=count)
        j = rng.integers(0, n, size=count)
        dx = xs[j] - xs[i]
        dy = y[j] - y[i]

    valid = dx != 0
    if not valid.all():  # repeated abscissae; the default's gaps are never zero
        if not valid.any():
            return TheilSenFit(slope=0.0, intercept=_median(y))
        dx, dy = dx[valid], dy[valid]
    slope = _median(dy / dx)
    intercept = _median(y - slope * xs)
    return TheilSenFit(slope=slope, intercept=intercept)
