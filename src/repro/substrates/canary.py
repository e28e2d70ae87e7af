"""Canary-test analysis: control-vs-test statistical comparison.

§6.2 notes that many of FBDetect's reports "match well with the same
magnitudes and similar timings of regressions recorded by Meta's
canary-test tool" — the pre-production counterpart that compares a
canary server group running new code against a control group running
old code.  This substrate implements that comparison: Welch's t-test
over per-server metric samples, with an effect-size estimate and
confidence interval, so examples and tests can corroborate FBDetect's
in-production detections exactly the way §6.2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as sp_stats

__all__ = ["CanaryVerdict", "compare_canary"]

#: The t-test's two-sided rejection level.
SIGNIFICANCE_LEVEL = 0.01
#: Metric orientation: a higher canary mean is the regression.
HIGHER_IS_WORSE = True
#: Smallest relative delta that counts as a regression even when
#: statistically significant (guards against flagging
#: measurement-resolution differences on huge sample counts).
MIN_RELATIVE_DELTA = 0.0


@dataclass(frozen=True)
class CanaryVerdict:
    """Outcome of one control-vs-canary comparison.

    Attributes:
        regressed: Whether the canary is statistically worse.
        relative_delta: Canary mean relative to control mean, minus 1
            (``+0.02`` = canary is 2% more expensive).
        confidence_interval: 95% CI on ``relative_delta``.
        p_value: Welch's t-test two-sided p-value.
        control_mean: Control group's sample mean.
        canary_mean: Canary group's sample mean.
    """

    regressed: bool
    relative_delta: float
    confidence_interval: tuple
    p_value: float
    control_mean: float
    canary_mean: float


def compare_canary(control: Sequence[float], canary: Sequence[float]) -> CanaryVerdict:
    """Welch's t-test comparison of a canary group's samples against a
    control group's, at :data:`SIGNIFICANCE_LEVEL` and oriented by
    :data:`HIGHER_IS_WORSE`.

    Raises:
        ValueError: When either group has fewer than 2 samples.
    """
    control_arr = np.asarray(control, dtype=float)
    canary_arr = np.asarray(canary, dtype=float)
    if control_arr.size < 2 or canary_arr.size < 2:
        raise ValueError("each group needs at least 2 samples")

    control_mean = float(control_arr.mean())
    canary_mean = float(canary_arr.mean())
    t_stat, p_value = sp_stats.ttest_ind(canary_arr, control_arr, equal_var=False)

    if control_mean != 0:
        relative_delta = canary_mean / control_mean - 1.0
    else:
        relative_delta = float("inf") if canary_mean != 0 else 0.0

    # 95% CI on the mean difference via Welch degrees of freedom,
    # expressed relative to the control mean.
    se = float(
        np.sqrt(
            control_arr.var(ddof=1) / control_arr.size
            + canary_arr.var(ddof=1) / canary_arr.size
        )
    )
    df = _welch_df(control_arr, canary_arr)
    margin = float(sp_stats.t.ppf(0.975, df)) * se
    diff = canary_mean - control_mean
    if control_mean != 0:
        ci = ((diff - margin) / abs(control_mean), (diff + margin) / abs(control_mean))
    else:
        ci = (float("-inf"), float("inf"))

    worse = relative_delta > 0 if HIGHER_IS_WORSE else relative_delta < 0
    regressed = (
        bool(p_value < SIGNIFICANCE_LEVEL)
        and worse
        and abs(relative_delta) >= MIN_RELATIVE_DELTA
    )
    return CanaryVerdict(
        regressed=regressed,
        relative_delta=float(relative_delta),
        confidence_interval=ci,
        p_value=float(p_value),
        control_mean=control_mean,
        canary_mean=canary_mean,
    )


def _welch_df(a: np.ndarray, b: np.ndarray) -> float:
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    denom = va ** 2 / (a.size - 1) + vb ** 2 / (b.size - 1)
    if denom <= 0:
        return float(a.size + b.size - 2)
    return float((va + vb) ** 2 / denom)
