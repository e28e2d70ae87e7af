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
    "NORMALITY_CONSTANT",
]

#: Scale factor making MAD a consistent estimator of the standard
#: deviation under normality (the paper's "normality constant").
NORMALITY_CONSTANT = 1.4826


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation of ``values`` (unscaled).

    Returns 0.0 for empty input.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return 0.0
    return float(np.median(np.abs(x - np.median(x))))


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
