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

from dataclasses import dataclass, field
from typing import Optional, Tuple

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

    def view(self, series: TimeSeries, now: float) -> "WindowedView":
        """Slice ``series`` into the three windows ending at ``now``.

        One bisect of the four bounds and one copy of ``[historic_start,
        now)``; the three windows are views into that copy.  It is a
        *snapshot*, not a live view: a ``WindowedView`` outlives the scan
        that made it — it rides ``Regression.window`` through dedup,
        checkpoints and worker round trips — so it must never alias a
        buffer that a later last-write-wins overwrite could mutate.
        """
        extended_start = now - self.extended
        analysis_start = extended_start - self.analysis
        historic_start = analysis_start - self.historic
        at, values = series.cut((historic_start, analysis_start, extended_start, now))
        analysis_at, extended_at = at[1] - at[0], at[2] - at[0]
        return WindowedView(
            spec=self,
            now=now,
            historic=values[:analysis_at],
            analysis=values[analysis_at:extended_at],
            extended=values[extended_at:],
            historic_start=historic_start,
            analysis_start=analysis_start,
            extended_start=extended_start,
            cut=(at, values),
        )


@dataclass(frozen=True)
class WindowedView:
    """A series sliced into historic / analysis / extended windows."""

    spec: WindowSpec
    now: float
    historic: np.ndarray
    analysis: np.ndarray
    extended: np.ndarray
    historic_start: float
    analysis_start: float
    extended_start: float
    #: Set by :meth:`WindowSpec.view` for the scan that makes the view: the
    #: column positions of the four bounds in the series, and the one copy
    #: the three windows are views of.  It describes the series at the cut,
    #: so it is neither compared nor pickled.
    cut: Optional[Tuple[Tuple[int, ...], np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("cut", None)
        return state

    @property
    def analysis_and_extended(self) -> np.ndarray:
        """Analysis + extended values, in time order."""
        return np.concatenate([self.analysis, self.extended])

    @property
    def full(self) -> np.ndarray:
        """All three windows concatenated in time order."""
        return np.concatenate([self.historic, self.analysis, self.extended])

    def has_minimum_data(self, min_historic: int = 10, min_analysis: int = 5) -> bool:
        """Whether both baseline and analysis windows hold enough points."""
        return self.historic.size >= min_historic and self.analysis.size >= min_analysis
