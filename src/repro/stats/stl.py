"""Loess smoothing and Seasonal-Trend decomposition using Loess (STL).

The seasonality detector (§5.2.3) and the long-term detection path (§5.3)
decompose a time series into seasonality + trend + residual with STL
[Cleveland et al. 1990].  This is a self-contained implementation:

- :func:`loess_smooth` — locally weighted linear regression with the
  classic tricube kernel, the points' fits a block at a time from a
  cached plan of the weights.
- :func:`stl_decompose` — the inner STL loop: cycle-subseries smoothing
  for the seasonal component, low-pass filtering to de-trend it, and
  loess smoothing of the deseasonalized series for the trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["STLResult", "loess_smooth", "stl_decompose"]

#: Local fits per block: one reused ``(block, window)`` scratch holds a
#: block's products, so a pass allocates no ``n x window`` temporary.
#: Chosen by measurement at the scans' 800- and 900-point windows.
LOESS_BLOCK_ROWS = 128

#: The local polynomial's degree: 1 fits a weighted line, 0 a weighted mean.
LOESS_DEGREE = 1
#: STL's inner-loop passes (2 is the STL default) and the trend smoother's
#: loess span.
STL_ITERATIONS = 2
TREND_SPAN = 0.4


@dataclass(frozen=True)
class STLResult:
    """An additive decomposition ``observed = seasonal + trend + residual``.

    Attributes:
        seasonal: Periodic component.
        trend: Slowly varying component.
        residual: Remainder.
        period: Season length used for the decomposition.
    """

    seasonal: np.ndarray
    trend: np.ndarray
    residual: np.ndarray
    period: int

    @property
    def deseasonalized(self) -> np.ndarray:
        """Trend + residual — the series with seasonality removed."""
        return self.trend + self.residual


def loess_smooth(values: Sequence[float], span: float = 0.3) -> np.ndarray:
    """Loess-smooth a series with the tricube kernel, fitting local
    polynomials of degree :data:`LOESS_DEGREE`.

    Args:
        values: The series to smooth.
        span: Fraction of points in each local window (0 < span <= 1).

    Returns:
        The smoothed series, same length as the input.

    Raises:
        ValueError: On an invalid span or degree.
    """
    degree = LOESS_DEGREE
    if not 0 < span <= 1:
        raise ValueError("span must be in (0, 1]")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")

    y = np.asarray(values, dtype=float)
    n = y.size
    if n == 0:
        return np.empty(0)
    window = min(n, max(2 if degree == 1 else 1, int(np.ceil(span * n))))
    if window == 1:
        return y.copy()  # every local window is the point itself

    plan = _loess_plan(n, window)
    windows = sliding_window_view(y, window)
    smoothed = np.empty(n)
    scratch = np.empty((min(n, LOESS_BLOCK_ROWS), window))
    for start in range(0, n, LOESS_BLOCK_ROWS):
        rows = slice(start, start + LOESS_BLOCK_ROWS)
        lo = plan.lo[rows]
        products = scratch[: lo.size]
        if lo[-1] - lo[0] == lo.size - 1:  # interior: consecutive windows
            ys = windows[lo[0] : lo[-1] + 1]
        else:
            ys = windows[lo]
        np.multiply(plan.w[rows], ys, out=products)
        ym = products.sum(axis=1) / plan.sw[rows]
        if degree == 1:
            # Weighted least squares for a local line, evaluated at each point.
            np.subtract(ys, ym[:, None], out=products)
            np.multiply(plan.wdx[rows], products, out=products)
            ym += products.sum(axis=1) / plan.sxx[rows] * plan.offset[rows]
        smoothed[rows] = ym
    return smoothed


class _LoessPlan(NamedTuple):
    """Everything in a loess pass that depends only on ``(n, window)``.

    Row ``i`` describes the local fit at point ``i``: ``lo`` is where its
    window starts, ``w`` the tricube weights, ``sw`` their sum, ``wdx``
    ``w * (x - xm)`` around the weighted abscissa mean ``xm``, ``sxx``
    the weighted spread of ``x`` and ``offset`` ``i - xm``.
    """

    lo: np.ndarray
    w: np.ndarray
    sw: np.ndarray
    wdx: np.ndarray
    sxx: np.ndarray
    offset: np.ndarray


@lru_cache(maxsize=8)
def _loess_plan(n: int, window: int) -> _LoessPlan:
    """The read-only plan for ``window``-point fits over ``n`` points.

    Bounded: a service scans a handful of distinct window lengths, and a
    900-point plan at span 0.4 is ~5 MB.  ``window >= 2``, so each row
    spans distinct integer abscissae with weights >= 1e-6: ``max_dist``
    and ``sxx`` are never zero.
    """
    x = np.arange(n, dtype=float)
    lo = np.clip(np.arange(n) - window // 2, 0, n - window)
    xs = sliding_window_view(x, window)[lo]
    dist = np.abs(xs - x[:, None])
    w = np.maximum((1 - (dist / dist.max(axis=1)[:, None]) ** 3) ** 3, 1e-6)
    sw = w.sum(axis=1)
    xm = (w * xs).sum(axis=1) / sw
    dx = xs - xm[:, None]
    plan = _LoessPlan(lo, w, sw, w * dx, (w * dx**2).sum(axis=1), x - xm)
    for column in plan:
        column.flags.writeable = False
    return plan


def _cycle_subseries_means(y: np.ndarray, period: int) -> np.ndarray:
    """Smooth each cycle-subseries by its mean, tiled back to full length.

    A simplified cycle-subseries smoother: the classic STL loess over each
    subseries degenerates to the subseries mean when the seasonal window
    is large ("periodic" mode), which is what regression detection wants —
    a stable seasonal profile rather than one that tracks anomalies.
    """
    cycles, ragged = divmod(y.size, period)
    # One contiguous row per phase, so each mean sums in the order a 1-D
    # mean of that subseries would.
    by_phase = np.ascontiguousarray(y[: cycles * period].reshape(cycles, period).T)
    means = by_phase.mean(axis=1)
    if ragged:  # the first phases have one more point
        longer = np.column_stack([by_phase[:ragged], y[cycles * period :]])
        means[:ragged] = longer.mean(axis=1)
    return np.tile(means, cycles + 1)[: y.size]


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge padding."""
    if window <= 1:
        return y.copy()
    pad = window // 2
    padded = np.concatenate([np.full(pad, y[0]), y, np.full(window - 1 - pad, y[-1])])
    kernel = np.full(window, 1.0 / window)
    return np.convolve(padded, kernel, mode="valid")


def stl_decompose(values: Sequence[float], period: int) -> STLResult:
    """Decompose ``values`` into seasonal, trend, and residual components.

    Implements the inner STL loop with a periodic seasonal smoother:

    1. Detrend: ``d = y - trend``.
    2. Seasonal: cycle-subseries means of ``d``, then remove any residual
       trend in the seasonal component with a ``period``-wide low-pass
       (moving-average) filter and center it.
    3. Trend: loess-smooth the deseasonalized series (span
       :data:`TREND_SPAN`).

    :data:`STL_ITERATIONS` passes run.

    Args:
        values: The series to decompose; must contain at least two full
            periods.
        period: Season length in samples.

    Returns:
        An :class:`STLResult`.

    Raises:
        ValueError: If ``period < 2`` or the series is shorter than two
            periods.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if period < 2:
        raise ValueError("period must be >= 2")
    if n < 2 * period:
        raise ValueError(f"need >= 2 periods ({2 * period} points), got {n}")

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    for _ in range(STL_ITERATIONS):
        detrended = y - trend
        raw_seasonal = _cycle_subseries_means(detrended, period)
        # Low-pass the seasonal estimate so leftover trend moves to the
        # trend component, then center the season at zero mean.
        low_pass = _moving_average(raw_seasonal, period)
        seasonal = raw_seasonal - low_pass
        seasonal -= seasonal.mean()
        deseasonalized = y - seasonal
        trend = loess_smooth(deseasonalized, span=TREND_SPAN)

    residual = y - seasonal - trend
    return STLResult(seasonal=seasonal, trend=trend, residual=residual, period=period)
