"""Per-series admission and repair: validators on every write.

The :class:`AdmissionController` sits inside each shard's ingest worker
(under the worker's queue lock, so it needs no locking of its own) and
sees every :class:`~repro.tsdb.columnar.SeriesFrame` before it is queued
for the TSDB.  What a frame alone decides — finite, sign-valid,
strictly increasing — is judged for a whole batch of frames in one
array pass; what state decides — above the series' watermark — is one
float comparison per frame, live.  A frame that passes both — the
overwhelming common case — is admitted whole; a counter's frame that
passes them and lies above its held rows is held whole, up to the
reorder bound.  A frame that flags on any of them drops to the row
logic below for that frame only:

- **Not finite** (NaN/Inf) → quarantined, reason ``not_finite``.
- **Negative value** on a non-negative metric (gCPU cannot go below
  zero) → clamped to 0.0 and counted as ``repaired``.
- **Counter reset** on a counter-typed series (``tags["type"] ==
  "counter"``): a raw value below the previous raw value means the
  counter wrapped or the process restarted; the running offset is
  rebased so the emitted cumulative series stays continuous — the same
  repair ``rate()`` applies in Prometheus.  Reset detection is only
  meaningful on timestamp-ordered deltas, so counter series always
  ride the reordering buffer and are rebased when a sorted batch is
  released, never at arrival.
- **Repeated timestamp**: counted, and admitted — the last write wins,
  in the reorder buffer and in the TSDB alike.
- **Out of order**: held in a per-series reordering buffer of
  :data:`REORDER_WINDOW` rows.  Stragglers accumulate sorted and are
  released as one frame — either when the buffer reaches its bound or
  at the next flush/advance boundary — which the ingest worker queues
  behind what is already queued, so backfill reaches the TSDB as one
  merge over the series' tail instead of O(n) single-point inserts,
  and in arrival order.

Row verdicts are tri-state (:data:`ADMIT` / :data:`HELD` /
:data:`DROP`); :meth:`AdmissionController.admit` folds them, per
frame, into the rows to enqueue now and a held count, which the worker
translates into queue operations and return values.  All controller
state is plain picklable data and rides the shard blob through
checkpoints, restores, and parallel advances.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.quality.quarantine import QuarantineStore
from repro.tsdb.columnar import FrameColumns, SeriesFrame

__all__ = ["ADMIT", "DROP", "HELD", "REORDER_WINDOW", "AdmissionController"]

#: One judgement of :meth:`AdmissionController.admit` (see there).
_Admitted = Tuple[int, int, Optional[SeriesFrame], Optional[SeriesFrame]]

#: Row verdicts of the fallback path.
ADMIT = 0  # enqueue the (possibly repaired) row now
HELD = 1   # accepted but buffered for reordering; nothing to enqueue yet
DROP = 2   # quarantined; the row must not reach the TSDB

_INF = float("inf")

#: ``tags["metric"]`` values that can never be negative; a negative
#: sample is collector damage, not data.
NON_NEGATIVE_METRICS: FrozenSet[str] = frozenset(
    {"gcpu", "cpu", "throughput", "latency_ms", "error_rate", "coredumps"}
)

#: Per-series straggler-buffer bound: when more than this many
#: out-of-order points are pending they are released as one backfill
#: batch.
REORDER_WINDOW = 16


def _screen(frames: Sequence[SeriesFrame]) -> Tuple[list, list, list, list, list]:
    """What each (non-empty) frame alone decides, in one array pass over
    the batch: per frame, its length, whether every value is finite and
    the timestamps strictly increase, its smallest value (NaN when one
    is), and its first and last timestamp — as Python lists, so the
    per-frame loop that follows compares numbers, not arrays."""
    columns = FrameColumns.of(frames)
    starts, stops, clean = columns.rising_runs()
    timestamps, values = columns.timestamps, columns.values
    clean &= np.isfinite(values)
    return (
        (stops - starts).tolist(),
        np.logical_and.reduceat(clean, starts).tolist(),
        np.minimum.reduceat(values, starts).tolist(),
        timestamps[starts].tolist(),
        timestamps[stops - 1].tolist(),
    )


class _SeriesState:
    """Per-series validator state (picklable; slots keep it small)."""

    __slots__ = (
        "watermark", "pending_ts", "pending_vals", "tags", "non_negative",
        "is_counter", "counter_offset", "last_raw", "admitted", "quarantined",
    )

    def __init__(self, tags: Mapping[str, str], non_negative: bool, is_counter: bool) -> None:
        self.watermark = -_INF      # highest timestamp passed to the queue
        self.pending_ts: List[float] = []    # sorted straggler timestamps
        self.pending_vals: List[float] = []  # parallel straggler values
        self.tags = tags            # identity of the frames released from here
        self.non_negative = non_negative
        self.is_counter = is_counter
        self.counter_offset = 0.0
        self.last_raw: Optional[float] = None
        self.admitted = 0
        self.quarantined = 0

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)


class AdmissionController:
    """Validators + reordering buffer + quarantine for one shard.

    Args:
        shard_id: Owning shard, for snapshot labelling only.

    Its counters are plain ints, the ``quality.*`` metrics' one home:
    ``/metrics`` folds them over shards, nothing records them twice.

    Not thread-safe on its own: every call that *writes* happens under
    the owning ingest worker's queue lock.  Scrapes call the read side
    (:meth:`counters`, :meth:`snapshot`) without it: each copies what it
    iterates first, so it never raises and is at worst one offer behind.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.quarantine = QuarantineStore()
        self._series: Dict[str, _SeriesState] = {}
        # Aggregate counters: plain ints, checkpointed with the shard.
        # (``admitted`` is derived from per-series counts — see the
        # property — so the hot path pays one increment, not two.)
        self.quarantined = 0
        #: ``quarantined`` by reason code, cumulative like it — unlike the
        #: store's per-series attribution, which ``release_series`` drops.
        self.quarantined_by_reason: Dict[str, int] = {}
        self.repaired = 0
        self.counter_resets = 0
        self.duplicates = 0
        self.reordered = 0
        self.buffered = 0  # currently held stragglers across all series

    # -- the admission decision -----------------------------------------

    def admit(self, frames: Sequence[SeriesFrame]) -> List[_Admitted]:
        """Validate a batch of frames, in order, row order within each.

        What a frame alone decides — every value finite, none negative,
        timestamps strictly increasing — is one array pass over the
        batch (:func:`_screen`).  What state decides is judged per
        frame, live, so a series repeated in the batch sees its earlier
        frames: the first row must lie above the series' watermark (a
        counter's: above its held rows).  A frame that passes is
        admitted whole (a counter's is held, :meth:`_hold`); any other
        drops to the row logic (:meth:`_admit_slow`).  Empty frames are
        skipped: they judge nothing and create no series state.

        Returns:
            One ``(consumed, held, admitted, released)`` per judgement,
            in order: how many leading rows were judged, how many of
            those are buffered for reordering, the rows to enqueue now
            (``None`` when there are none; a repaired copy when a value
            was clamped), and the series' sorted stragglers when the
            last row judged overflowed its reorder buffer.  Quarantined
            rows are ``consumed`` minus held and admitted.  ``consumed``
            falls short of a frame only after a release, and the rest of
            the frame is judged in the next entry: queued in entry
            order, a release lands ahead of the rows behind it.  Rows
            are judged without asking for room, so a caller with a
            bounded queue offers only what fits, counting the held rows
            a release may add.
        """
        frames = [frame for frame in frames if len(frame)]
        if not frames:
            return []
        judged: List[_Admitted] = []
        for frame, rows, clean, lowest, first, last in zip(frames, *_screen(frames)):
            state = self._series.get(frame.name)
            if state is None:
                state = self._create_state(frame)
            clean = clean and (lowest >= 0.0 or not state.non_negative)
            while True:
                floor = (
                    state.pending_ts[-1] if state.is_counter and state.pending_ts
                    else state.watermark
                )
                if not clean or not first > floor:
                    outcome = self._admit_slow(state, frame)
                elif state.is_counter:
                    outcome = self._hold(state, frame)
                else:
                    state.watermark = last
                    state.admitted += rows
                    judged.append((rows, 0, frame, None))
                    break
                judged.append(outcome)
                consumed = outcome[0]
                if consumed == rows:
                    break
                # A release cut the frame short: judge the rest afresh.
                frame, rows = frame[consumed:], rows - consumed
                first = float(frame.timestamps[0])
        return judged

    def _hold(self, state: _SeriesState, frame: SeriesFrame) -> _Admitted:
        """Hold an orderly counter frame whole, up to the row that
        overflows the reorder buffer — what the row logic does one row
        at a time for rows that are in order, finite and new."""
        state.tags = frame.tags
        room = REORDER_WINDOW + 1 - len(state.pending_ts)
        timestamps = frame.timestamps[:room].tolist()
        state.pending_ts.extend(timestamps)
        state.pending_vals.extend(frame.values[:room].tolist())
        held = len(timestamps)
        state.admitted += held
        self.buffered += held
        released = None
        if len(state.pending_ts) > REORDER_WINDOW:
            released = self._release(state, frame.name)
        return held, held, None, released

    def _admit_slow(self, state: _SeriesState, frame: SeriesFrame) -> _Admitted:
        """Row logic for a frame that fell off the fast path: validation
        failures, duplicates, and stragglers."""
        state.tags = frame.tags
        kept_ts: List[float] = []
        kept_vals: List[float] = []
        consumed = held = 0
        released = None
        for timestamp, value in zip(frame.timestamps.tolist(), frame.values.tolist()):
            verdict, value = self._admit_row(state, frame.name, timestamp, value)
            consumed += 1
            if verdict == ADMIT:
                kept_ts.append(timestamp)
                kept_vals.append(value)
            elif verdict == HELD:
                held += 1
                if len(state.pending_ts) > REORDER_WINDOW:
                    released = self._release(state, frame.name)
                    break
        admitted = SeriesFrame(frame.name, frame.tags, kept_ts, kept_vals) if kept_ts else None
        return consumed, held, admitted, released

    def _admit_row(
        self, state: _SeriesState, name: str, timestamp: float, value: float
    ) -> Tuple[int, float]:
        """Judge one row: ``(verdict, the value to enqueue)``.

        Counter series never admit at arrival: reset detection compares
        consecutive raw values, which is only meaningful on
        timestamp-ordered deltas — an out-of-order delivery would
        masquerade as a rollover and corrupt the rebase.  So counters
        are always held sorted and rebased when a batch is *released*
        (:meth:`_release`).
        """
        # Validators.  NaN is the only float that is != itself.
        if value != value or value == _INF or value == -_INF:
            self._quarantine(state, name, timestamp, value, "not_finite")
            return DROP, value
        if value < 0.0 and state.non_negative:
            value = 0.0
            self.repaired += 1
        counter = state.is_counter
        if not counter and timestamp >= state.watermark:
            if timestamp == state.watermark:
                self.duplicates += 1
            state.watermark = timestamp
            state.admitted += 1
            return ADMIT, value  # the TSDB resolves a repeat last-write-wins

        pos = bisect.bisect_right(state.pending_ts, timestamp)
        if pos and state.pending_ts[pos - 1] == timestamp:
            self.duplicates += 1
            state.pending_vals[pos - 1] = value  # last write wins in the buffer
            state.admitted += 1
            return HELD, value
        if counter and timestamp <= state.watermark:
            # Arrived after its ordered slot was already released: the
            # sequential rebase pass moved on, so apply the offset in
            # effect without reset detection and let the TSDB backfill.
            if timestamp < state.watermark:
                self.reordered += 1
            else:
                self.duplicates += 1
            state.admitted += 1
            return ADMIT, (value + state.counter_offset if state.counter_offset else value)
        # Straggler (or any counter row): buffer it sorted; the caller
        # releases the whole batch when the buffer overflows (or at the
        # next flush/advance boundary).
        if not counter or (state.pending_ts and timestamp < state.pending_ts[-1]):
            self.reordered += 1
        state.pending_ts.insert(pos, timestamp)
        state.pending_vals.insert(pos, value)
        state.admitted += 1
        self.buffered += 1
        return HELD, value

    def _release(self, state: _SeriesState, name: str) -> SeriesFrame:
        """Empty one series' sorted straggler buffer into a frame,
        rebasing a counter's raw values on the way out.

        The rebase stays a Python loop: a release holds at most
        ``REORDER_WINDOW + 1`` rows, and at that size the loop costs a
        fraction of an array pass's per-call overhead.
        """
        timestamps, values = state.pending_ts, state.pending_vals
        state.pending_ts, state.pending_vals = [], []
        self.buffered -= len(timestamps)
        if state.is_counter:
            state.watermark = max(state.watermark, timestamps[-1])
            for index, raw in enumerate(values):
                if state.last_raw is not None and raw < state.last_raw:
                    # Reset/rollover: rebase so the cumulative stays continuous.
                    state.counter_offset += state.last_raw
                    self.counter_resets += 1
                state.last_raw = raw
                if state.counter_offset:
                    values[index] = raw + state.counter_offset
        return SeriesFrame(name, state.tags, timestamps, values)

    def drain_pending(self) -> List[SeriesFrame]:
        """Release *every* held straggler: one sorted frame per series,
        earliest first.

        Called at flush/advance boundaries (detection is about to look
        at the TSDB) and before shard snapshots (held points must travel
        with the queue they are destined for).
        """
        drained = [
            self._release(state, name)
            for name, state in self._series.items()
            if state.pending_ts
        ]
        drained.sort(key=lambda frame: frame.timestamps[0])
        return drained

    # -- operator surface -------------------------------------------------

    def release_series(self, name: str) -> int:
        """Un-quarantine one series: clear its records and reset its score."""
        released = self.quarantine.release(name)
        state = self._series.get(name)
        if state is not None:
            state.quarantined = 0
        return released

    def quality_score(self, name: str) -> Optional[float]:
        """Fraction of the series' offered points that were admitted."""
        state = self._series.get(name)
        if state is None:
            return None
        seen = state.admitted + state.quarantined
        return state.admitted / seen if seen else 1.0

    @property
    def admitted(self) -> int:
        """Total admitted samples, derived from the per-series counts
        (the hot path pays one per-series increment, nothing aggregate)."""
        return sum(state.admitted for state in list(self._series.values()))

    def counters(self) -> Dict[str, int]:
        """Aggregate admission counters as a plain dict."""
        return {
            "admitted": self.admitted,
            "quarantined": self.quarantined,
            "repaired": self.repaired,
            "counter_resets": self.counter_resets,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "buffered": self.buffered,
        }

    def snapshot(self) -> dict:
        """JSON view for ``/quality`` (one shard's slice)."""
        scores = {
            name: round(self.quality_score(name) or 1.0, 6)
            for name in self.quarantine.series_names()
        }
        return {
            "shard": self.shard_id,
            "counters": self.counters(),
            "quarantine": self.quarantine.snapshot(),
            "scores": scores,
        }

    # -- internals --------------------------------------------------------

    def _create_state(self, frame: SeriesFrame) -> _SeriesState:
        tags = frame.tags
        state = _SeriesState(
            tags,
            non_negative=tags.get("metric") in NON_NEGATIVE_METRICS,
            is_counter=tags.get("type") == "counter",
        )
        self._series[frame.name] = state
        return state

    def _quarantine(
        self, state: _SeriesState, name: str, timestamp: float, value: float, reason: str
    ) -> None:
        self.quarantine.add(name, timestamp, value, reason)
        state.quarantined += 1
        self.quarantined += 1
        by_reason = self.quarantined_by_reason
        by_reason[reason] = by_reason.get(reason, 0) + 1
