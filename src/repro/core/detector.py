"""FBDetect: the top-level facade.

Wraps a :class:`DetectionPipeline` with its scan context and state, the
periodic re-run loop of Table 1 and a convenience single-series API.

Example::

    from repro import FBDetect, table1_config

    detector = FBDetect(table1_config("frontfaas_small"))
    result = detector.run(database, now=simulation_end)
    for regression in result.reported:
        print(regression.context.metric_id, regression.magnitude)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import DetectionConfig
from repro.core.pipeline import DetectionPipeline
from repro.core.types import PipelineResult, ScanContext
from repro.fleet.changes import ChangeLog
from repro.profiling.stacktrace import StackTrace
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.series import TimeSeries

__all__ = ["FBDetect"]


class FBDetect:
    """In-production performance-regression detector.

    Args:
        config: Workload configuration (use
            :func:`repro.config.table1_config` for the paper's presets).
        change_log: Known code/configuration changes.
        samples: Stack-trace sample history.
        series_filter: Tag filters restricting which series are scanned.
    """

    def __init__(
        self,
        config: DetectionConfig,
        change_log: Optional[ChangeLog] = None,
        samples: Sequence[StackTrace] = (),
        series_filter: Optional[Dict[str, str]] = None,
        **pipeline_kwargs,
    ) -> None:
        self.config = config
        self.pipeline = DetectionPipeline(config, series_filter=series_filter, **pipeline_kwargs)
        self.context = ScanContext(tuple(samples), change_log or ChangeLog())
        self.state = self.pipeline.new_state()

    def run(self, database: TimeSeriesDatabase, now: float) -> PipelineResult:
        """One detection scan at reference time ``now``."""
        return self.pipeline.run(database, now, self.context, self.state)

    def run_periodic(
        self,
        database: TimeSeriesDatabase,
        start: float,
        end: float,
    ) -> List[PipelineResult]:
        """Scans at every re-run interval in ``[start, end]``.

        Mirrors production operation: the SameRegressionMerger and
        PairwiseDedup state persists across runs, so a regression that
        stays visible through many overlapping windows is reported once.
        """
        results = []
        now = start
        while now <= end:
            results.append(self.run(database, now))
            now += self.config.rerun_interval
        return results

    def detect_series(
        self,
        values: Sequence[float],
        name: str = "adhoc.series",
        tags: Optional[Dict[str, str]] = None,
    ) -> PipelineResult:
        """Convenience: run detection over one raw value array.

        The array is laid out on a uniform time grid sized to exactly
        fill the configured historic+analysis+extended windows, then
        scanned once at its end.

        Args:
            values: The series values, oldest first.
            name: Metric id given to the ad-hoc series.
            tags: Optional tags (service/subroutine/metric).
        """
        x = np.asarray(values, dtype=float)
        database = TimeSeriesDatabase()
        total = self.config.windows.total
        step = total / max(1, x.size)
        series = database.create(name, tags or {})
        for i, value in enumerate(x):
            series.append(i * step, float(value))
        return self.run(database, now=total)
