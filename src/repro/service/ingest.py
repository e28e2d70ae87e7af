"""Per-shard ingest: bounded queues, batch flushing, backpressure.

Each shard owns one :class:`ShardIngestWorker`.  Producers ``offer()``
batches of per-series :class:`~repro.tsdb.columnar.SeriesFrame`\\ s,
one call per shard per ingest call; the worker buffers them in a queue
bounded in *samples* and batch-flushes into the shard's TSDB through
:meth:`~repro.tsdb.database.TimeSeriesDatabase.write_batch`.  A frame
that does not fit is split at the room available, so every policy is
exact to the sample.  When the queue is full, the configured
:class:`BackpressurePolicy` decides what gives:

- ``BLOCK`` — the *producer* pays: the worker synchronously flushes one
  batch to make room (caller-runs backpressure — nothing is ever lost,
  ingestion slows to the flush rate).
- ``DROP_OLDEST`` — the oldest buffered samples are evicted, off the
  heads of the oldest frames (bounded staleness; freshest data wins).
- ``REJECT`` — the tail that does not fit is refused and the producer is
  told how much got in (load shedding at the edge).

Every policy outcome has a counter on the worker — plain ints that ride
along in checkpoints, beside the worker's own flush-latency histogram.
They are the ``ingest.*`` metrics: ``/metrics`` sums them over shards
(:mod:`repro.service.views`), and nothing records them anywhere else.

Every batch passes through the worker's
:class:`~repro.quality.admission.AdmissionController` first (under the
same queue lock, taken once per batch): quarantined rows are dropped
before they can reach the TSDB, repaired rows are enqueued in their repaired form, and
out-of-order rows are held in the controller's reordering buffer —
released as one sorted frame when the buffer overflows or at a
flush/advance boundary, onto the queue's *back* like every other frame.  So per timestamp the
TSDB is written in arrival order, and a repeat resolves to the last
arrival wherever the flushes fall; held counter rows postdate
everything queued for their series and append without a merge.  The
controller pickles with the worker, so quarantine state and reorder
buffers ride checkpoints like every other counter.

The worker and its database belong to the service process for life: a
parallel advance (:mod:`repro.service.parallel`) scans a *replica* in
another process, so this module has no notion of an advance — while a
replica exists the shard hangs a :attr:`ShardIngestWorker.write_log` on
the worker and every batch written is also noted there — and the worker
crosses a process boundary only inside a checkpoint blob, pickled under
:meth:`ShardIngestWorker.paused`.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.quality.admission import AdmissionController
from repro.service.metrics import Histogram
from repro.tsdb.columnar import FrameColumns, SeriesFrame
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["Sample", "BackpressurePolicy", "ShardIngestWorker", "frames_of"]


@dataclass(frozen=True, slots=True)
class Sample:
    """One streamed metric point.

    Attributes:
        name: Series name (also the default routing key).
        timestamp: Sample time (seconds).
        value: Metric value.
        tags: Series tags, applied on series auto-creation.
    """

    name: str
    timestamp: float
    value: float
    tags: Mapping[str, str] = field(default_factory=dict)


def frames_of(samples: Iterable[Sample]) -> List[SeriesFrame]:
    """Group samples into one frame per series.

    Frames come out in first-appearance order and keep each series'
    arrival order; a series' tags are those of its first sample.
    """
    rows: Dict[str, List[Sample]] = {}
    for sample in samples:
        rows.setdefault(sample.name, []).append(sample)
    return [
        SeriesFrame(name, group[0].tags, [s.timestamp for s in group], [s.value for s in group])
        for name, group in rows.items()
    ]


class BackpressurePolicy(str, enum.Enum):
    """What happens when a shard's ingest queue is full."""

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    REJECT = "reject"


class ShardIngestWorker:
    """Bounded ingest queue + batch flush for one shard.

    Args:
        shard_id: Owning shard (labels counters and checkpoints).
        database: The shard's TSDB.
        admission: The
            :class:`~repro.quality.admission.AdmissionController` run on
            every offer.
        capacity: Queue bound in samples; offers beyond it trigger the
            policy.
        policy: Backpressure policy (see module docstring); ``BLOCK``
            by default: no thread drains the queue, so only a flush in
            the caller makes room without losing what was offered.
        batch_size: Samples per TSDB write batch.

    Thread-safe: producers may ``offer()`` concurrently with ``flush()``.
    """

    #: Set by the shard while a worker process holds a replica of
    #: ``database``: every batch written is noted there too.  Process-
    #: local like the replica it describes, so it never rides a pickle.
    write_log: Optional[Any] = None

    def __init__(
        self,
        shard_id: object,
        database: TimeSeriesDatabase,
        admission: AdmissionController,
        capacity: int = 1024,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        batch_size: int = 256,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.shard_id = shard_id
        self.database = database
        self.capacity = capacity
        self.policy = BackpressurePolicy(policy)
        self.batch_size = batch_size
        self.admission = admission
        self._queue: Deque[SeriesFrame] = deque()
        self._pending = 0  # samples across the queued frames
        self._lock = threading.RLock()
        # Plain-int counters: picklable, cheap, checkpointed with the shard.
        self.offered = 0
        self.accepted = 0
        self.flushed = 0
        self.dropped_oldest = 0
        self.rejected = 0
        self.blocking_flushes = 0
        self.flush_failures = 0
        #: Seconds per batch written (``ingest.flush_seconds``; its count
        #: is the batches written); pickled as its plain
        #: :meth:`~repro.service.metrics.Histogram.state`.
        self.flush_seconds = Histogram()

    # -- producer side --------------------------------------------------

    def offer(self, frames: Sequence[SeriesFrame]) -> int:
        """Enqueue a batch of frames, in order, applying backpressure
        when full; the lock is taken once for the batch.

        The rows are validated first: quarantined rows never touch the
        queue, out-of-order rows are held for reordering (they are
        accepted, just not enqueued yet), and repaired rows continue in
        their repaired form.  A batch that fits the room left — counting
        every held row a release could add — is admitted in one call;
        otherwise each frame is offered on its own (:meth:`_offer_frame`).

        Returns:
            How many rows were buffered or held for reordering — the
            frames' length minus what was quarantined and, under
            ``REJECT`` with a full queue, the refused tails.
        """
        with self._lock:
            total = sum(map(len, frames))
            self.offered += total
            if (
                self.policy is BackpressurePolicy.DROP_OLDEST
                or self._pending + self.admission.buffered + total <= self.capacity
            ):
                return self._enqueue(self.admission.admit(frames))
            return sum(self._offer_frame(frame) for frame in frames)

    def _offer_frame(self, frame: SeriesFrame) -> int:
        """Offer one frame to a queue it may not fit (lock held), in
        slices that do.

        Backpressure resolves *before* admission: rows refused by a full
        queue never touch validator state, so a later retry of the same
        points is not misclassified as duplicates — and refused rows
        skip the admission work.  Admission judges a slice without
        asking for room, so a slice is short enough that each of its
        rows still finds room even if every row before it and every
        held row a release could add were queued first; at the bound
        that is one row.
        """
        total = len(frame)
        taken = start = 0
        while start < total:
            room = self.capacity - self._pending
            if room <= 0:
                if not self._make_room(total - start):
                    break
                continue
            stop = min(total, start + max(1, room - self.admission.buffered))
            rows = frame[start:stop] if stop - start < total else frame
            taken += self._enqueue(self.admission.admit([rows]))
            start = stop
        return taken

    def _enqueue(
        self, judged: List[Tuple[int, int, Optional[SeriesFrame], Optional[SeriesFrame]]]
    ) -> int:
        """Queue what admission judged, entry by entry (lock held);
        returns the rows taken: admitted plus held."""
        taken = 0
        evicting = self.policy is BackpressurePolicy.DROP_OLDEST
        for _, held, admitted, released in judged:
            taken += held
            if admitted is not None:
                self._queue.append(admitted)
                rows = len(admitted)
                self._count_enqueued(rows)
                taken += rows
                # Eviction makes room for rows that take room: one
                # admission quarantined or held evicts nothing.
                if evicting and self._pending > self.capacity:
                    self._evict(min(rows, self._pending - self.capacity))
            # A row that overflowed its reorder buffer released the
            # batch: it is queued before the rows behind it.
            if released is not None:
                self._release_stragglers([released])
        return taken

    def _make_room(self, waiting: int) -> bool:
        """A full queue under ``REJECT`` / ``BLOCK`` (lock held): refuse
        the ``waiting`` rows, or flush a batch for them."""
        if self.policy is BackpressurePolicy.REJECT:
            self.rejected += waiting
            return False
        # BLOCK: caller-runs — flush a batch to make room.
        self.blocking_flushes += 1
        self._flush_batch()
        return True

    def _count_enqueued(self, rows: int) -> None:
        self._pending += rows
        self.accepted += rows

    def _release_stragglers(self, frames: List[SeriesFrame]) -> None:
        """Queue released reorder buffers at the back (lock held).

        A released frame joins the queue like any other.  What is queued
        ahead of it for its series either arrived earlier or holds other
        timestamps, so per timestamp the TSDB sees the writes in arrival
        order and the last arrival wins a repeat.  They were already
        admitted, so they bypass the capacity policy (the transient
        overshoot is bounded by the admission reorder window); they
        count as accepted here, on actual enqueue.
        """
        if frames:
            self._queue.extend(frames)
            self._count_enqueued(sum(len(frame) for frame in frames))

    def _take(self, limit: int) -> List[SeriesFrame]:
        """Pop up to ``limit`` samples off the queue head, splitting the
        frame that straddles the limit (lock held)."""
        taken: List[SeriesFrame] = []
        while limit and self._queue:
            head = self._queue.popleft()
            rows = len(head)
            if rows > limit:
                self._queue.appendleft(head[limit:])
                head, rows = head[:limit], limit
            taken.append(head)
            limit -= rows
            self._pending -= rows
        return taken

    def _evict(self, count: int) -> None:
        self._take(count)
        self.dropped_oldest += count

    def _requeue(self, frames: List[SeriesFrame]) -> None:
        """Put frames taken off the queue back at its front, in order."""
        self._queue.extendleft(reversed(frames))
        self._pending += sum(len(frame) for frame in frames)

    @property
    def pending(self) -> int:
        """Samples buffered but not yet flushed."""
        return self._pending

    # -- flush side ------------------------------------------------------

    def flush(self) -> int:
        """Drain the whole queue into the TSDB in ``batch_size`` batches.

        Every sample held in the admission reordering buffer is released
        first — by an advance, a snapshot and a caller's
        :meth:`~repro.service.service.StreamingDetectionService.flush`
        alike — so whatever scans next sees a fully backfilled TSDB.

        Returns:
            Number of samples written.
        """
        written = 0
        with self._lock:
            self._release_stragglers(self.admission.drain_pending())
            while self._queue:
                written += self._flush_batch()
        return written

    def _flush_batch(self) -> int:
        """Write up to one batch (caller holds the lock).

        A failed write must not lose the batch: the popped frames are
        put back at the *front* of the queue (they predate everything
        still buffered) before the error propagates, so a retried flush
        writes the same samples in the same order.
        """
        batch = self._take(self.batch_size)
        if not batch:
            return 0
        started = time.perf_counter()
        columns = FrameColumns.of(batch)
        try:
            written = self.database.write_batch(columns)
        except Exception:
            self._requeue(batch)
            self.flush_failures += 1
            raise
        self.flushed += written
        if self.write_log is not None and not self.write_log.wrote(columns):
            self.write_log = None  # replaying it would cost more than a re-fork
        self.flush_seconds.observe(time.perf_counter() - started)
        return written

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Hold the queue lock for the duration of the block.

        How a shard is copied consistently — for a worker process or
        a checkpoint — or scanned in place while producers (and their
        caller-runs flushes) are live: inside the block the queue and
        the database do not move; offers and flushes wait for it, then
        carry on against the same objects.
        """
        with self._lock:
            yield

    # -- introspection / pickling ----------------------------------------

    def counters(self) -> Dict[str, int]:
        """Backpressure, flush, and admission counters as a plain dict."""
        counters = {
            "offered": self.offered,
            "accepted": self.accepted,
            "flushed": self.flushed,
            "dropped_oldest": self.dropped_oldest,
            "rejected": self.rejected,
            "blocking_flushes": self.blocking_flushes,
            "flush_failures": self.flush_failures,
        }
        for key, value in self.admission.counters().items():
            counters[f"quality_{key}"] = value
        return counters

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state.pop("write_log", None)
        state["flush_seconds"] = self.flush_seconds.state()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self.flush_seconds = Histogram.from_state(state["flush_seconds"])
