"""Likelihood-ratio validation of a candidate change point.

Once the CUSUM/EM iteration converges on a split, the paper validates it
with a likelihood-ratio chi-squared test at significance level 0.01
(§5.2.1):

- H0: no change point — one mean ``mu`` for the entire series.
- H1: one change point ``t`` — mean ``mu0`` before and ``mu1`` after.

Under H0 the statistic ``2 (logL1 - logL0)`` is asymptotically chi-squared
with one degree of freedom (the extra mean parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import chdtrc, chdtri

__all__ = [
    "LRT_SCREEN_MARGIN",
    "LRT_SCREEN_MAX_POINTS",
    "LikelihoodRatioResult",
    "likelihood_ratio_test",
    "lrt_screen_rows",
]

#: How far below the chi-squared critical value a *screened* statistic
#: must fall before :func:`lrt_screen_rows` answers "not significant"
#: without the exact test.  The screen's worst-case rounding error is
#: ``2 n^2.5 eps`` (7e-10 at ``n = 400``, 2.4e-7 at the longest row it
#: accepts); observed errors stay under 1e-10.
LRT_SCREEN_MARGIN = 1e-6
LRT_SCREEN_MAX_POINTS = 4096


@dataclass(frozen=True)
class LikelihoodRatioResult:
    """Outcome of the likelihood-ratio chi-squared test.

    Attributes:
        statistic: ``2 (logL1 - logL0)``; larger means stronger evidence
            for a change point.
        p_value: Chi-squared (df=1) tail probability of the statistic.
        significant: Whether H0 was rejected at the configured level.
        significance_level: The level used (paper default 0.01).
    """

    statistic: float
    p_value: float
    significant: bool
    significance_level: float


def _gaussian_loglik(x: np.ndarray) -> float:
    """Max Gaussian log-likelihood of ``x`` with fitted mean and variance."""
    n = x.size
    var = max(float(x.var()), 1e-30)
    return -0.5 * n * (np.log(2 * np.pi * var) + 1.0)


def likelihood_ratio_test(
    values: Sequence[float],
    changepoint: int,
    significance_level: float = 0.01,
) -> LikelihoodRatioResult:
    """Test H1 (one change point at ``changepoint``) against H0 (no change).

    Args:
        values: The time series.
        changepoint: First index of the post-change segment; must leave at
            least one point on each side.
        significance_level: Rejection level for H0 (paper uses 0.01).

    Returns:
        A :class:`LikelihoodRatioResult`; ``significant`` is ``True`` when
        the series genuinely has different means around ``changepoint``.

    Raises:
        ValueError: If ``changepoint`` does not split the series into two
            non-empty segments.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if not 0 < changepoint < n:
        raise ValueError(
            f"changepoint {changepoint} must split series of length {n} "
            "into two non-empty segments"
        )

    ll0 = _gaussian_loglik(x)
    # H1 uses a pooled variance so the test isolates the mean shift.
    before, after = x[:changepoint], x[changepoint:]
    rss = float(((before - before.mean()) ** 2).sum() + ((after - after.mean()) ** 2).sum())
    pooled_var = max(rss / n, 1e-30)
    ll1 = -0.5 * n * (np.log(2 * np.pi * pooled_var) + 1.0)

    statistic = max(0.0, 2.0 * (ll1 - ll0))
    p_value = float(chdtrc(1, statistic))  # chi2.sf(df=1), without the dispatch
    return LikelihoodRatioResult(
        statistic=float(statistic),
        p_value=p_value,
        significant=p_value < significance_level,
        significance_level=significance_level,
    )


def lrt_screen_rows(
    centred: np.ndarray,
    curve: np.ndarray,
    mean: np.ndarray,
    index: np.ndarray,
    significance_level: float = 0.01,
) -> np.ndarray:
    """Rows of a ``(k, n)`` matrix whose split *might* pass the LRT.

    A screen that can only say no: it never produces a p-value or a
    verdict that is reported.  The statistic of :func:`likelihood_ratio_test`
    is re-derived per row from prefix sums of the **centred** rows (the
    un-centred ``q - s^2 / n`` cancels catastrophically once mean^2 >>
    variance), which lands within ``2 n^2.5 eps`` of the exact two-pass
    value; a row is cleared only when that misses the chi-squared(1)
    critical value by more than :data:`LRT_SCREEN_MARGIN`.  Every other
    row — and every row whose screened value cannot be trusted: not
    finite, a sum of squares that under- or overflows, a spread below
    1e-6 of the mean (centring error no longer negligible), or more than
    :data:`LRT_SCREEN_MAX_POINTS` points — must go through the exact test.

    Args:
        centred: ``x - x.mean()`` per row.
        curve: ``cumsum(centred)`` per row (the CUSUM curve).
        mean: The row means that were subtracted.
        index: Per row, the first index of the post-change segment
            (``0 < index < n``).
        significance_level: Rejection level the exact test will use.

    Returns:
        Boolean mask, ``True`` where the exact test must decide.
    """
    k, n = centred.shape
    if n > LRT_SCREEN_MAX_POINTS:
        return np.ones(k, dtype=bool)
    row = np.arange(k)
    squares = np.cumsum(centred * centred, axis=1)
    s1, q1 = curve[row, index - 1], squares[row, index - 1]
    s, q = curve[:, -1], squares[:, -1]
    s2, q2 = s - s1, q - q1
    with np.errstate(all="ignore"):
        total = q - s * s / n
        rss = (q1 - s1 * s1 / index) + (q2 - s2 * s2 / (n - index))
        # The exact test's clamps, so the two agree on degenerate rows.
        statistic = n * (
            np.log(np.maximum(total / n, 1e-30)) - np.log(np.maximum(rss / n, 1e-30))
        )
        critical = chdtri(1, significance_level) - LRT_SCREEN_MARGIN
        # Written so that NaN anywhere fails the comparison: not cleared.
        cleared = (
            (statistic < critical)
            & (total > 1e-200)
            & (total < 1e200)
            & (total * 1e12 > n * mean * mean)
        )
    return ~cleared
