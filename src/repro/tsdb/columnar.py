"""Growable contiguous float64 columns backing the TSDB hot path.

A :class:`FloatColumn` is the storage primitive behind
:class:`~repro.tsdb.series.TimeSeries`: one contiguous numpy ``float64``
buffer with amortized-doubling capacity, so appends are O(1) amortized
and every read the scan path cares about — tail values since the last
scan, window slices, coverage timestamps — is a zero-copy view into the
live buffer instead of a per-point list-to-array conversion.

Invariants the rest of the stack relies on:

- **Views are read-only.**  Every array returned by :meth:`view` has
  ``writeable=False``; consumers that need to mutate (orientation flips,
  windowed snapshots) copy explicitly.
- **Growth, merges and compaction reallocate.**  Doubling,
  :meth:`splice` and :meth:`replace` all swap in a *fresh* buffer, so a
  view handed out earlier keeps seeing the exact bytes it was created
  over — it can go stale (miss newer appends) but never see shifted or
  reused memory.
- **In-place overwrite is the only mutation views can observe.**  A
  repeated timestamp through ``TimeSeries.append`` rewrites one cell of
  the live buffer; callers that must not observe it (stored window
  snapshots) take copies at the boundary (``WindowSpec.view``).
- **Pickles are compact.**  Only the live prefix round-trips through
  ``__getstate__`` — slack capacity never rides shard checkpoints or
  worker round trips.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FloatColumn", "FrameColumns", "SeriesFrame"]

#: Smallest non-zero capacity; doubling starts here.
_MIN_CAPACITY = 8


class SeriesFrame:
    """A run of one series' points: identity once, two ``float64`` columns.

    The unit of ingest from the wire to :meth:`FloatColumn.extend`:
    routed, queued, admitted and appended whole.  Rows are in arrival
    order; the columns may be any two equal-length numeric sequences
    (``float64`` arrays are adopted, not copied).  Slicing returns a
    zero-copy sub-frame — how a queue bound splits a frame.
    """

    __slots__ = ("name", "tags", "timestamps", "values")

    def __init__(
        self,
        name: str,
        tags: Optional[Mapping[str, str]],
        timestamps: Sequence[float],
        values: Sequence[float],
    ) -> None:
        self.name = name
        self.tags = tags or {}
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, rows: slice) -> "SeriesFrame":
        return SeriesFrame(self.name, self.tags, self.timestamps[rows], self.values[rows])


class FrameColumns:
    """A batch of frames end to end: one name, tags and length per frame,
    and two contiguous ``float64`` columns holding every frame's rows in
    order — what a flush writes and what a replica replays, in one form.
    No frame in it is empty.

    Slicing selects whole frames (``columns[2:5]``) and copies nothing.
    """

    __slots__ = ("names", "tags", "lengths", "timestamps", "values")

    def __init__(
        self,
        names: Sequence[str],
        tags: Sequence[Mapping[str, str]],
        lengths: np.ndarray,
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.names = names
        self.tags = tags
        self.lengths = lengths
        self.timestamps = timestamps
        self.values = values

    @classmethod
    def of(cls, frames: Sequence[SeriesFrame]) -> "FrameColumns":
        """The non-empty ``frames`` flattened: one concatenation per column."""
        stamps = [frame.timestamps for frame in frames]
        lengths = np.fromiter(map(len, stamps), dtype=np.intp, count=len(stamps))
        if not lengths.all():
            frames = [frame for frame in frames if len(frame)]
            stamps = [frame.timestamps for frame in frames]
            lengths = lengths[lengths > 0]
        nothing = [np.empty(0)]  # concatenate refuses an empty list
        return cls(
            [frame.name for frame in frames],
            [frame.tags for frame in frames],
            lengths,
            np.concatenate(stamps or nothing),
            np.concatenate([frame.values for frame in frames] or nothing),
        )

    @classmethod
    def join(cls, batches: Sequence["FrameColumns"]) -> "FrameColumns":
        """``batches`` end to end."""
        if not batches:
            return cls.of(())
        return cls(
            [name for batch in batches for name in batch.names],
            [tags for batch in batches for tags in batch.tags],
            np.concatenate([batch.lengths for batch in batches]),
            np.concatenate([batch.timestamps for batch in batches]),
            np.concatenate([batch.values for batch in batches]),
        )

    def __len__(self) -> int:
        """Rows, over every frame."""
        return int(self.timestamps.size)

    def __getitem__(self, frames: slice) -> "FrameColumns":
        stops = np.cumsum(self.lengths)
        start, stop, _ = frames.indices(len(self.lengths))
        first = int(stops[start - 1]) if start else 0
        last = int(stops[stop - 1]) if stop > start else first
        return FrameColumns(
            self.names[frames], self.tags[frames], self.lengths[frames],
            self.timestamps[first:last], self.values[first:last],
        )

    def rising_runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For one array pass over the batch instead of a few numpy calls
        per frame: ``(starts, stops, rising)`` — where each frame's rows
        begin and end in the columns, and per row whether its timestamp
        lies above the row before it in its frame (a first row always
        does) — so a frame's timestamps strictly increase when
        ``np.logical_and.reduceat(rising, starts)`` says so.
        """
        stops = np.cumsum(self.lengths)
        starts = stops - self.lengths
        timestamps = self.timestamps
        rising = np.empty(timestamps.size, dtype=bool)
        np.greater(timestamps[1:], timestamps[:-1], out=rising[1:])
        rising[starts] = True
        return starts, stops, rising


class FloatColumn:
    """A growable contiguous ``float64`` column (amortized O(1) append)."""

    __slots__ = ("_buffer", "_length")

    def __init__(self, values: Optional[Iterable[float]] = None) -> None:
        if values is None:
            self._buffer = np.empty(0, dtype=np.float64)
            self._length = 0
        else:
            self._buffer = np.array(values, dtype=np.float64).ravel()
            self._length = int(self._buffer.size)

    # -- size ----------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        """Allocated slots (always >= ``len(self)``)."""
        return int(self._buffer.size)

    def _grow_to(self, needed: int) -> None:
        """Reallocate to a doubled capacity holding at least ``needed``."""
        cap = max(self._buffer.size, _MIN_CAPACITY)
        while cap < needed:
            cap *= 2
        fresh = np.empty(cap, dtype=np.float64)
        fresh[: self._length] = self._buffer[: self._length]
        self._buffer = fresh

    # -- writes --------------------------------------------------------

    def append(self, value: float) -> None:
        """Append one value (amortized O(1))."""
        if self._length == self._buffer.size:
            self._grow_to(self._length + 1)
        self._buffer[self._length] = value
        self._length += 1

    def extend(self, values: np.ndarray) -> None:
        """Bulk-append ``values`` with one memcpy (amortized O(m))."""
        m = int(values.size)
        if m == 0:
            return
        if self._length + m > self._buffer.size:
            self._grow_to(self._length + m)
        self._buffer[self._length : self._length + m] = values
        self._length += m

    def set(self, index: int, value: float) -> None:
        """Overwrite one cell (negative indices supported)."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"column index {index} out of range")
        self._buffer[index] = value

    def splice(self, start: int, values: np.ndarray) -> None:
        """Keep ``[:start]`` and follow it with ``values``, in a fresh
        buffer of the current or a doubled capacity with room to spare.

        The backfill merge's write: outstanding views keep pointing at
        the old buffer (stale but intact), and the next append does not
        reallocate.
        """
        length = start + int(values.size)
        self._length = start
        self._grow_to(length + 1)
        self._buffer[start:length] = values
        self._length = length

    def replace(self, values: np.ndarray) -> None:
        """Adopt ``values`` as the new content, in a fresh buffer.

        Used by retention compaction: outstanding views keep pointing at
        the old buffer (stale but intact) rather than observing shifted
        data.
        """
        self._buffer = np.array(values, dtype=np.float64).ravel()
        self._length = int(self._buffer.size)

    # -- reads ---------------------------------------------------------

    def get(self, index: int) -> float:
        """One value as a Python float (negative indices supported)."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"column index {index} out of range")
        return float(self._buffer[index])

    def last(self) -> Optional[float]:
        """The last value as a Python float, ``None`` when empty: one
        read, for the per-frame "does it append?" check."""
        return float(self._buffer[self._length - 1]) if self._length else None

    def view(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Zero-copy read-only view of ``[start, stop)``."""
        if stop is None or stop > self._length:
            stop = self._length
        out = self._buffer[start:stop]
        out.flags.writeable = False
        return out

    def array(self) -> np.ndarray:
        """Writable copy of the live prefix."""
        return np.array(self._buffer[: self._length])

    def tolist(self) -> list:
        """The live prefix as a list of Python floats."""
        return self._buffer[: self._length].tolist()

    def searchsorted(self, value: float, side: str = "left") -> int:
        """Bisect over the live prefix (timestamps are kept sorted)."""
        return int(np.searchsorted(self.view(), value, side=side))

    # -- equality / pickling ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatColumn):
            return NotImplemented
        return bool(np.array_equal(self.view(), other.view()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FloatColumn(len={self._length}, capacity={self.capacity})"

    def __getstate__(self) -> np.ndarray:
        # Compact: only the live prefix rides checkpoints and pools.
        return self.array()

    def __setstate__(self, state) -> None:
        self._buffer = np.asarray(state, dtype=np.float64).ravel()
        self._length = int(self._buffer.size)
