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
from scipy.special import chdtrc

__all__ = ["LikelihoodRatioResult", "likelihood_ratio_test"]


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
