"""Detection windows (Figure 4).

FBDetect divides a series, relative to a detection run's reference time,
into three parts:

- the *historic window* — baseline for comparison;
- the *analysis window* — where regressions are reported;
- the *extended window* — used to evaluate whether an observed regression
  persists or disappears.

Time layout (most recent on the right)::

    | ... historic ... | ... analysis ... | ... extended ... |now
                                          ^
                                          analysis_end

The extended window, when present, covers the most recent data; the
analysis window precedes it; the historic window precedes the analysis
window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tsdb.series import TimeSeries

__all__ = ["WindowSpec", "WindowedView"]


@dataclass(frozen=True)
class WindowSpec:
    """Durations (seconds) of the three detection windows.

    Attributes:
        historic: Baseline duration (Table 1: 7-16 days).
        analysis: Reporting duration (Table 1: 3 hours - 9 days).
        extended: Persistence-check duration; 0 when the configuration
            has no extended window ("N/A" rows of Table 1).
    """

    historic: float
    analysis: float
    extended: float = 0.0

    def __post_init__(self) -> None:
        if self.historic <= 0 or self.analysis <= 0 or self.extended < 0:
            raise ValueError("windows must be positive (extended may be 0)")

    @property
    def total(self) -> float:
        return self.historic + self.analysis + self.extended

    def starts(self, now: float) -> Tuple[float, float, float]:
        """``(historic_start, analysis_start, extended_start)`` of the
        windows ending at ``now``."""
        extended_start = now - self.extended
        analysis_start = extended_start - self.analysis
        return analysis_start - self.historic, analysis_start, extended_start

    def view(self, series: TimeSeries, now: float) -> "WindowedView":
        """Slice ``series`` into the three windows ending at ``now``.

        One bisect of the four bounds and one copy of each column over
        ``[historic_start, now)``; the three windows are views into that
        copy.  It is a *snapshot*, not a live view: a ``WindowedView``
        outlives the scan that made it — it rides ``Regression.window``
        through dedup, checkpoints and worker round trips — so it must
        never alias a buffer that a later last-write-wins overwrite could
        mutate.
        """
        at, times, values = series.cut((*self.starts(now), now))
        return WindowedView(self, now, times, values, at[1] - at[0], at[2] - at[0])


@dataclass(frozen=True)
class WindowedView:
    """One snapshot of a series' samples over ``[historic_start, now)``.

    ``times`` and ``values`` are the samples in time order; the historic
    window is ``[:analysis_at]``, the analysis window
    ``[analysis_at:extended_at]`` and the extended window
    ``[extended_at:]``.  An index into them names a sample, and its time
    is the one it was stored at: ``times[index]``.
    """

    spec: WindowSpec
    now: float
    times: np.ndarray
    values: np.ndarray
    analysis_at: int
    extended_at: int

    @property
    def historic_start(self) -> float:
        return self.spec.starts(self.now)[0]

    @property
    def analysis_start(self) -> float:
        return self.spec.starts(self.now)[1]

    @property
    def extended_start(self) -> float:
        return self.spec.starts(self.now)[2]

    @property
    def historic(self) -> np.ndarray:
        return self.values[: self.analysis_at]

    @property
    def analysis(self) -> np.ndarray:
        return self.values[self.analysis_at : self.extended_at]

    @property
    def extended(self) -> np.ndarray:
        return self.values[self.extended_at :]

    @property
    def analysis_and_extended(self) -> np.ndarray:
        """Analysis + extended values, in time order."""
        return self.values[self.analysis_at :]

    @property
    def full(self) -> np.ndarray:
        """All three windows in time order."""
        return self.values

    def has_minimum_data(self, min_historic: int = 10, min_analysis: int = 5) -> bool:
        """Whether both baseline and analysis windows hold enough points."""
        return self.historic.size >= min_historic and self.analysis.size >= min_analysis
