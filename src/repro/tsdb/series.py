"""A single append-only time series, stored columnar.

Points live in two parallel :class:`~repro.tsdb.columnar.FloatColumn`
buffers (contiguous ``float64`` with amortized-doubling capacity), so
the scan hot path — tail values since the last scan, window slices,
coverage timestamps — reads zero-copy array views instead of converting
Python lists point by point.  See :mod:`repro.tsdb.columnar` for the
view-invalidation rules the buffers guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.tsdb.columnar import FloatColumn

__all__ = ["TimeSeries"]


@dataclass(eq=False)
class TimeSeries:
    """An append-mostly series of ``(timestamp, value)`` points.

    Timestamps are floats (seconds); appends must be non-decreasing in
    time, matching how monitoring pipelines ingest data.  Out-of-order
    points go through :meth:`ingest_columns`, which keeps the arrays
    sorted.

    A repeated timestamp overwrites the stored value in place — a point
    is an observation, and the latest observation for an instant
    supersedes earlier ones.  So the series never holds two points with
    the same timestamp, and window sizes equal covered time.

    Attributes:
        name: Fully qualified metric name, e.g.
            ``"frontfaas.render_feed.gcpu"``.
        tags: Free-form key/value metadata (service, metric type,
            subroutine, endpoint ...), used by the pipeline to route
            series to detectors.
    """

    name: str
    tags: Dict[str, str] = field(default_factory=dict)
    _timestamps: FloatColumn = field(default_factory=FloatColumn, init=False, repr=False)
    _values: FloatColumn = field(default_factory=FloatColumn, init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.name == other.name
            and self.tags == other.tags
            and self._timestamps == other._timestamps
            and self._values == other._values
        )

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._timestamps.tolist(), self._values.tolist()))

    def append(self, timestamp: float, value: float) -> None:
        """Append a point; ``timestamp`` must be >= the last timestamp.

        A timestamp equal to the last overwrites its value.

        Raises:
            ValueError: On an out-of-order timestamp (use
                :meth:`ingest_columns`).
        """
        n = len(self._timestamps)
        if n:
            last = self._timestamps.get(-1)
            if timestamp < last:
                raise ValueError(
                    f"out-of-order append at {timestamp} < {last}; "
                    "use ingest_columns() for backfill"
                )
            if timestamp == last:
                self._values.set(-1, float(value))
                return
        self._timestamps.append(float(timestamp))
        self._values.append(float(value))

    def extend(self, points: Iterable[Tuple[float, float]]) -> None:
        """Append many ``(timestamp, value)`` points in order."""
        for timestamp, value in points:
            self.append(timestamp, value)

    def ingest_many(self, points: Iterable[Tuple[float, float]]) -> int:
        """:meth:`ingest_columns` for ``(timestamp, value)`` pairs."""
        pairs = np.array(list(points), dtype=np.float64).reshape(-1, 2)
        return self.ingest_columns(pairs[:, 0], pairs[:, 1])

    def ingest_columns(self, ts: np.ndarray, vals: np.ndarray) -> int:
        """Bulk-append two parallel columns, tolerating stragglers.

        The streaming ingest path.  A strictly-in-order frame — the
        overwhelmingly common case once the admission layer's reordering
        buffer has done its job — lands as one vectorized bulk append
        (two memcpys).  Anything else (repeats, late arrivals) is one
        array merge over the frame and the series' tail at or after the
        frame's oldest timestamp (:meth:`_merge`): the last arrival wins
        each timestamp.

        Returns:
            Number of points written (last-write-wins overwrites count —
            every accepted point is accounted for).
        """
        m = len(ts)
        if m == 0:
            return 0
        last = self._timestamps.get(-1) if len(self._timestamps) else float("-inf")
        if ts[0] > last and np.logical_and.reduce(ts[1:] > ts[:-1]):
            self.append_columns(ts, vals)
        else:
            self._merge(ts, vals)
        return m

    def append_columns(self, ts: np.ndarray, vals: np.ndarray) -> None:
        """Bulk-append two parallel columns whose timestamps the caller
        has checked strictly increase from above :attr:`end`: two
        memcpys, no check of its own."""
        self._timestamps.extend(ts)
        self._values.extend(vals)

    def _merge(self, ts: np.ndarray, vals: np.ndarray) -> None:
        """Merge rows (any order, repeats allowed) into the series.

        Only the tail at or after the rows' oldest timestamp is
        re-sorted.  A stable sort of (tail + rows) puts a stored point
        before the rows and keeps the rows in arrival order, so keeping
        the last of each run of equal timestamps is last-write-wins by
        arrival.  The result goes to fresh buffers
        (:meth:`FloatColumn.splice`): views handed out earlier keep
        their bytes.
        """
        lo = self._timestamps.searchsorted(float(ts.min()))
        merged_ts = np.concatenate((self._timestamps.view(lo), ts))
        order = np.argsort(merged_ts, kind="stable")
        merged_ts = merged_ts[order]
        merged_vals = np.concatenate((self._values.view(lo), vals))[order]
        keep = np.empty(merged_ts.size, dtype=bool)
        np.not_equal(merged_ts[1:], merged_ts[:-1], out=keep[:-1])
        keep[-1] = True
        if not keep.all():
            merged_ts, merged_vals = merged_ts[keep], merged_vals[keep]
        self._timestamps.splice(lo, merged_ts)
        self._values.splice(lo, merged_vals)

    def latest(self) -> Optional[Tuple[float, float]]:
        """The most recent ``(timestamp, value)`` point, if any."""
        if not len(self._timestamps):
            return None
        return self._timestamps.get(-1), self._values.get(-1)

    @property
    def timestamps(self) -> np.ndarray:
        """Timestamps as a numpy array (copy)."""
        return self._timestamps.array()

    @property
    def values(self) -> np.ndarray:
        """Values as a numpy array (copy)."""
        return self._values.array()

    @property
    def start(self) -> Optional[float]:
        return self._timestamps.get(0) if len(self._timestamps) else None

    @property
    def end(self) -> Optional[float]:
        return self._timestamps.last()

    def between(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with timestamps in ``[start, end)`` (own storage)."""
        lo = self._timestamps.searchsorted(start, side="left")
        hi = self._timestamps.searchsorted(end, side="left")
        sub = TimeSeries(name=self.name, tags=dict(self.tags))
        sub._timestamps = FloatColumn(self._timestamps.view(lo, hi))
        sub._values = FloatColumn(self._values.view(lo, hi))
        return sub

    def values_between(self, start: float, end: float) -> np.ndarray:
        """Values whose timestamps fall in ``[start, end)``.

        Zero-copy read-only view; consume immediately (see
        :mod:`repro.tsdb.columnar` for staleness rules) or copy.
        """
        lo = self._timestamps.searchsorted(start, side="left")
        hi = self._timestamps.searchsorted(end, side="left")
        return self._values.view(lo, hi)

    def cut(
        self, bounds: Sequence[float]
    ) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
        """Column positions of ascending ``bounds``, each bisected as
        :meth:`values_between` bisects it, and copies of the timestamps and
        values from the first position to the last: one bisect of every
        bound, one copy of each column."""
        stamps = self._timestamps.view()
        at = tuple(np.searchsorted(stamps, bounds).tolist())
        return at, np.array(stamps[at[0] : at[-1]]), np.array(self._values.view(at[0], at[-1]))

    def drop_before(self, cutoff: float) -> int:
        """Retention: drop points older than ``cutoff``; returns count dropped.

        Compaction allocates fresh buffers (see
        :class:`~repro.tsdb.columnar.FloatColumn.replace`), so views
        handed out before retention never observe shifted data.
        """
        lo = self._timestamps.searchsorted(cutoff, side="left")
        if lo:
            self._timestamps.replace(self._timestamps.view(lo))
            self._values.replace(self._values.view(lo))
        return lo
