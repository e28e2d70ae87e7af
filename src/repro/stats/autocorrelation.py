"""Autocorrelation-based seasonality presence detection.

The seasonality detector first asks whether seasonality is present at all:
"FBDetect applies an autocorrelation function and checks if the correlation
is significant" (§5.2.3).  Only when it is does the (more expensive) STL
decomposition run.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["acf", "detect_season_length"]


#: The longest admissible season; ``None`` admits up to ``n // 2``.
MAX_PERIOD: Optional[int] = None
#: The correlation a peak must exceed; ``None`` takes the large-sample 5%
#: bound ``1.96 / sqrt(n)``.
SIGNIFICANCE: Optional[float] = None

# Slack on each comparison the FFT screen makes: its values sit within
# 1e-15 of the lagged products (tests hold the gap under 1e-12).
_SCREEN_SLACK = 1e-9


def _correlation(x: np.ndarray, denom: float, lag: int) -> float:
    """One lag of the sample ACF of a centred series: the lagged product."""
    if denom <= 0:
        return float(lag == 0)
    return float((x[: x.size - lag] * x[lag:]).sum()) / denom


def _fft_correlations(x: np.ndarray, denom: float, max_lag: int) -> np.ndarray:
    """Lags ``0..max_lag`` of the same ACF to ~1e-15, in one transform pair."""
    size = 1 << (x.size + max_lag).bit_length()  # zero-padded: no lag wraps
    spectrum = np.fft.rfft(x, size)
    power = spectrum.real**2 + spectrum.imag**2
    return np.fft.irfft(power, size)[: max_lag + 1] / denom


def acf(values: Sequence[float], max_lag: Optional[int] = None) -> np.ndarray:
    """Sample autocorrelation function.

    Args:
        values: The time series.
        max_lag: Largest lag to compute; defaults to ``n // 2``.

    Returns:
        Array of autocorrelations for lags ``0..max_lag`` (``acf[0] == 1``
        for any non-constant series).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n == 0:
        return np.empty(0)
    if max_lag is None:
        max_lag = n // 2
    max_lag = min(max_lag, n - 1)
    x = x - x.mean()
    denom = float((x * x).sum())
    return np.array([_correlation(x, denom, lag) for lag in range(max_lag + 1)])


def detect_season_length(values: Sequence[float], min_period: int = 2) -> Optional[int]:
    """Find the dominant season length: the highest significant ACF peak.

    A lag up to :data:`MAX_PERIOD` qualifies when it is a local maximum of
    the ACF (no smaller than either neighbour) and its correlation exceeds
    :data:`SIGNIFICANCE`.  Of the qualifying lags the one with the
    highest correlation wins (not the first), the shortest on a tie.

    Every value that decides is a lagged product, as in :func:`acf`; the
    FFT only screens.  A lag it leaves out misses the threshold or a
    neighbour by more than the transform can err, and where that error
    is not bounded — a sum of squares that is NaN, infinite or in reach
    of underflow or overflow — every lag is judged.

    Args:
        values: The time series.
        min_period: Smallest admissible period (at least 1).

    Returns:
        The detected period, or ``None`` when no significant peak exists.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_period:
        return None
    max_period = MAX_PERIOD if MAX_PERIOD is not None else n // 2
    threshold = SIGNIFICANCE if SIGNIFICANCE is not None else 1.96 / np.sqrt(n)
    # Lags first .. last - 1 are judged, each against both neighbours.
    first, last = max(min_period, 1), min(max_period, n - 1)
    if last <= first:
        return None

    x = x - x.mean()
    denom = float((x * x).sum())
    lags = np.arange(first, last)
    if 1e-200 < denom < 1e200:  # finite input, squares clear of under- and overflow
        screen = _fft_correlations(x, denom, last)
        mid = screen[first:last]
        lags = lags[
            ~(mid <= threshold - _SCREEN_SLACK)  # as the scan asks it: a NaN bound passes
            & (mid >= screen[first - 1 : last - 1] - _SCREEN_SLACK)
            & (mid >= screen[first + 1 :] - _SCREEN_SLACK)
        ]

    best_lag, best_corr = None, threshold
    for lag in lags.tolist():
        c = _correlation(x, denom, lag)
        if c <= best_corr:
            continue
        if c >= _correlation(x, denom, lag - 1) and c >= _correlation(x, denom, lag + 1):
            best_lag, best_corr = lag, c
    return best_lag

