"""A keyed collection of time series with tag queries and retention."""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.tsdb.columnar import FrameColumns
from repro.tsdb.series import TimeSeries

__all__ = ["TimeSeriesDatabase"]


class TimeSeriesDatabase:
    """In-memory store for named time series.

    Series are identified by name; tags enable the pipeline's routing
    queries ("all gCPU series of service X").  Writes auto-create series.
    """

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series.values())

    def create(self, name: str, tags: Optional[Mapping[str, str]] = None) -> TimeSeries:
        """Create (or return the existing) series ``name``.

        Tags supplied for an existing series are merged in.
        """
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(name=name, tags=dict(tags or {}))
            self._series[name] = series
        elif tags:
            series.tags.update(tags)
        return series

    def get(self, name: str) -> Optional[TimeSeries]:
        """The series named ``name``, or ``None``."""
        return self._series.get(name)

    def write(
        self,
        name: str,
        timestamp: float,
        value: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Append one point, creating the series if needed."""
        self.create(name, tags).append(timestamp, value)

    def write_batch(self, batch: FrameColumns) -> int:
        """Append every frame's rows to its series, in the order given.

        The one write path of the streaming service: a flush writes its
        frames as :class:`~repro.tsdb.columnar.FrameColumns`, and a
        replica replays the same columns.  Whether a frame's timestamps
        strictly increase is one array pass over the batch
        (:meth:`FrameColumns.rising_runs
        <repro.tsdb.columnar.FrameColumns.rising_runs>`); whether it
        starts above its series' last stored timestamp is decided per
        frame, live, so a series repeated in the batch sees its earlier
        frames.  A frame that passes both is two bulk appends; any other
        goes through
        :meth:`TimeSeries.ingest_columns <repro.tsdb.series.TimeSeries.ingest_columns>`
        and its merge.  A batch holds no empty frame, so none creates a
        series.

        Returns:
            Number of points written.
        """
        if not len(batch):
            return 0
        starts, stops, rising = batch.rising_runs()
        timestamps, values = batch.timestamps, batch.values
        for name, tags, start, stop, in_order, first in zip(
            batch.names, batch.tags, starts.tolist(), stops.tolist(),
            np.logical_and.reduceat(rising, starts).tolist(), timestamps[starts].tolist(),
        ):
            series = self.create(name, tags)
            end = series.end
            if in_order and (end is None or first > end):
                series.append_columns(timestamps[start:stop], values[start:stop])
            else:
                series.ingest_columns(timestamps[start:stop], values[start:stop])
        return len(batch)

    def query(self, **tag_filters: str) -> List[TimeSeries]:
        """Series whose tags match all ``tag_filters`` exactly.

        Example: ``db.query(service="frontfaas", metric="gcpu")``.
        """
        return [
            series
            for series in self._series.values()
            if all(series.tags.get(key) == value for key, value in tag_filters.items())
        ]

    def names(self) -> List[str]:
        """All series names, sorted."""
        return sorted(self._series)

    def apply_retention(self, cutoff: float) -> int:
        """Drop points older than ``cutoff`` fleet-wide; returns total dropped."""
        return sum(series.drop_before(cutoff) for series in self._series.values())
