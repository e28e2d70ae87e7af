"""Mann-Kendall non-parametric trend test.

The went-away detector (§5.2.2) uses Mann-Kendall to check whether the tail
of a regression shows a decreasing trend (possible recovery) and whether
the post-regression window shows a lasting monotonic upward trend.

The test statistic is ``S = sum_{i<j} sign(x_j - x_i)``; under H0 (no
trend), S is approximately normal with mean 0 and a variance that accounts
for tied values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import ndtr

__all__ = ["MannKendallResult", "mann_kendall_scores", "mann_kendall_test", "pair_plan"]

#: The two-sided level at which a trend is called.
SIGNIFICANCE_LEVEL = 0.05

# The pair plan both trend kernels read: ``upper[i, j]`` is ``i < j``,
# ``gaps[i, j]`` is ``float(j - i)``.  Read-only, n^2 bytes for the largest
# window seen plus 8 MB at most, and replaced in one assignment: a scan on
# another thread sees a whole plan, this one or the last.
_pair_plan = (np.zeros((0, 0), dtype=bool), np.zeros((0, 0)))
_GAPS_SIDE = 1000  # Theil-Sen, the only reader of ``gaps``, pairs no more points exactly


def pair_plan(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(upper, gaps)`` over the pairs of ``n`` points: ``(n, n)`` views, ``gaps`` to its limit."""
    global _pair_plan
    upper, gaps = _pair_plan
    if upper.shape[0] < n:
        order = np.arange(n)
        upper = order[:, None] < order
        gaps = (order[:_GAPS_SIDE] - order[:_GAPS_SIDE, None]).astype(float)
        upper.flags.writeable = gaps.flags.writeable = False
        _pair_plan = (upper, gaps)
    return upper[:n, :n], gaps[:n, :n]


@dataclass(frozen=True)
class MannKendallResult:
    """Outcome of a Mann-Kendall trend test.

    Attributes:
        s: Raw Mann-Kendall S statistic.
        z: Normal-approximation z score (continuity corrected).
        p_value: Two-sided p-value.
        trend: ``"increasing"``, ``"decreasing"``, or ``"no trend"`` at the
            :data:`SIGNIFICANCE_LEVEL`.
    """

    s: int
    z: float
    p_value: float
    trend: str

    @property
    def is_increasing(self) -> bool:
        return self.trend == "increasing"

    @property
    def is_decreasing(self) -> bool:
        return self.trend == "decreasing"


def mann_kendall_test(values: Sequence[float]) -> MannKendallResult:
    """Run the Mann-Kendall trend test at :data:`SIGNIFICANCE_LEVEL`.

    Args:
        values: The series to test (at least 3 points for a meaningful
            result; shorter series, and series holding a NaN or an
            infinity, report "no trend").

    Returns:
        A :class:`MannKendallResult` with the detected trend direction.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3 or not np.isfinite(x).all():
        return MannKendallResult(s=0, z=0.0, p_value=1.0, trend="no trend")

    # S = number of concordant minus discordant pairs.  ``later[i, j]`` is
    # x_j > x_i: above the diagonal it marks a concordant pair, below it
    # (read transposed) a discordant one, and the diagonal is empty.
    later = x[None, :] > x[:, None]
    concordant = int(np.count_nonzero(later & pair_plan(n)[0]))
    ordered = int(np.count_nonzero(later))
    s = 2 * concordant - ordered

    # Variance with tie correction: zero when every pair is ordered one way
    # or the other, which is exactly when no two values tie.
    tie_term = 0.0
    if 2 * ordered != n * (n - 1):
        _, counts = np.unique(x, return_counts=True)
        tie_term = float((counts * (counts - 1) * (2 * counts + 5)).sum())
    z, p_value = mann_kendall_scores(np.array([s]), np.array([n]), np.array([tie_term]))
    z, p_value = float(z[0]), float(p_value[0])
    if p_value < SIGNIFICANCE_LEVEL:
        trend = "increasing" if z > 0 else "decreasing"
    else:
        trend = "no trend"
    return MannKendallResult(s=s, z=z, p_value=p_value, trend=trend)


def mann_kendall_scores(
    s: np.ndarray, n: np.ndarray, tie_term: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(z, p_value)`` of Mann-Kendall statistics, elementwise.

    ``s`` and ``n`` are integer arrays, ``tie_term`` the float
    ``sum(c (c - 1) (2c + 5))`` over each window's groups of tied values.
    The one scoring of :func:`mann_kendall_test` and of the went-away
    rows: a window whose variance is not positive scores ``(0.0, 1.0)``.
    """
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    scored = var_s > 0
    # S moved one step towards zero (continuity), over its deviation.
    toward_zero = s - (s > 0) + (s < 0)
    z = np.where(scored, toward_zero / np.sqrt(np.where(scored, var_s, 1.0)), 0.0)
    return z, 2.0 * ndtr(-np.abs(z))  # norm.sf, without the dispatch
