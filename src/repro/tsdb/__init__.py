"""In-memory time-series database substrate.

Stands in for Meta's production TSDB: stores the ~800k metric time series
FBDetect scans, and answers the windowed queries of Figure 4 (historic /
analysis / extended windows relative to a detection run's "now").
"""

from repro.tsdb.columnar import FloatColumn, FrameColumns, SeriesFrame
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.series import TimeSeries
from repro.tsdb.windows import WindowSpec, WindowedView

__all__ = [
    "FloatColumn",
    "FrameColumns",
    "SeriesFrame",
    "TimeSeries",
    "TimeSeriesDatabase",
    "WindowSpec",
    "WindowedView",
]
