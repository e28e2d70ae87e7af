"""One shard, and the ways it leaves the process.

A :class:`Shard` is a TSDB, the ingest worker in front of it and the
scheduler that scans it.  Every serialised form of it is produced here
under ``worker.paused()`` — the queue lock every offer and flush takes —
so none can be torn by live producers or their caller-runs flushes:

- :meth:`Shard.checkpoint_blob` / :meth:`Shard.restore` — the durable form:
  database, worker (queue and held stragglers included) and scheduler
  in one pickle, so shared references survive;
- :meth:`Shard.delta` / :meth:`Shard.adopt` — what keeps a worker
  process's read replica level: the writes logged since the last cut
  go out as a :class:`ShardDelta`, only the advanced scheduler comes
  back.

A replica itself is never pickled: :meth:`Shard.forking` holds the
shard still — flushed, a fresh :class:`WriteLog` hung — while a worker
is forked holding its scheduler and database.  Neither serialised form
carries a process-local handle.  The scan side — scheduler,
detectors, pipelines — holds none to begin with: a scan returns its
ledger and the service publishes it.  The ingest side keeps its counts
itself (plain ints and a histogram state that ride the pickle; the views
fold them), and the one process-local thing it holds, the write log of a
replica, it drops in ``__getstate__``.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.quality import AdmissionController
from repro.runtime.scheduler import DetectionScheduler, ScanOutcome
from repro.service.ingest import BackpressurePolicy, ShardIngestWorker
from repro.tsdb.columnar import FrameColumns
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["Shard", "ShardDelta", "ShardStats", "WriteLog"]


@dataclass(frozen=True)
class ShardStats:
    """One shard's health snapshot, and every count its owners keep: the
    ingest side's, the scheduler's scans and its monitors' incremental
    caches (``{"hits": ..., "misses": ...}``)."""

    shard_id: int
    series: int
    pending: int
    counters: Dict[str, int]
    scans: int
    incremental: Dict[str, int]
    quarantined_by_reason: Dict[str, int]
    flush_seconds: dict


@dataclass
class ShardDelta:
    """A cut of a :class:`WriteLog`: the batches written, end to end as one
    :class:`~repro.tsdb.columnar.FrameColumns`, and the retention cutoffs
    applied between them (``(frames before it, cutoff)``).
    ``generation`` names the replica state it extends."""

    generation: int
    columns: FrameColumns
    cutoffs: List[Tuple[int, float]]

    def replay(self, database: TimeSeriesDatabase) -> None:
        """Write to ``database`` what was written to the logged one,
        through the same calls in the same order."""
        done = 0
        for before, cutoff in self.cutoffs:
            database.write_batch(self.columns[done:before])
            database.apply_retention(cutoff)
            done = before
        database.write_batch(self.columns[done:])


class WriteLog:
    """Every write to one shard's database since its replica was last
    brought level, in order; the caller holds the queue lock.

    It is bounded by a rule: a log holding more points than the database
    does costs more to replay than a re-fork, so :meth:`wrote` and
    :meth:`trimmed` answer whether it is still worth keeping.
    """

    def __init__(self, database: TimeSeriesDatabase) -> None:
        self.database = database
        #: Advances adopted since the fork: the replica state the next
        #: :meth:`cut` extends.
        self.generation = 0
        self._clear()
        self._room = 0  # the database's size when last counted

    def _clear(self) -> None:
        self.batches: List[FrameColumns] = []
        self.cutoffs: List[Tuple[int, float]] = []
        self.frames = 0
        self.points = 0

    def _fits(self) -> bool:
        # The database only shrinks in ``trimmed``: between counts it is
        # at least ``_room``, so most writes need no recount.
        if self.points > self._room:
            self._room = sum(len(series) for series in self.database)
        return self.points <= self._room

    def wrote(self, batch: FrameColumns) -> bool:
        """Note one ``write_batch`` that succeeded."""
        self.batches.append(batch)
        self.frames += len(batch.names)
        self.points += len(batch)
        return self._fits()

    def trimmed(self, cutoff: float) -> bool:
        """Note one ``apply_retention`` — a write like any other: a
        straggler older than the cutoff, flushed after the cut, is gone
        from the live database and must go from the replica."""
        self.cutoffs.append((self.frames, cutoff))
        self._room = 0
        return self._fits()

    def cut(self) -> ShardDelta:
        """Everything logged so far, as a delta; the log starts over."""
        delta = ShardDelta(self.generation, FrameColumns.join(self.batches), self.cutoffs)
        self._clear()
        return delta


class Shard:
    """One shard: its TSDB, ingest worker and scheduler."""

    def __init__(
        self,
        shard_id: int,
        queue_capacity: int,
        backpressure: BackpressurePolicy,
        batch_size: int,
        retention: float,
    ) -> None:
        self.shard_id = shard_id
        self.database = TimeSeriesDatabase()
        self.worker = ShardIngestWorker(
            shard_id,
            self.database,
            admission=AdmissionController(shard_id),
            capacity=queue_capacity,
            policy=backpressure,
            batch_size=batch_size,
        )
        self.scheduler = DetectionScheduler(self.database, retention=retention)

    def advance(self, target: float) -> Tuple[List[ScanOutcome], float]:
        """Flush and scan in this process; ``(outcomes, seconds)`` — what
        a worker process reports for the same work.

        Under the queue lock, like :meth:`forking`: the scan reads the
        live database, and a producer's caller-runs flush writing a frame
        mid-scan extends a series' timestamp column before its value
        column — a window sliced between the two reads past the values
        that exist.
        """
        started = time.perf_counter()
        with self.worker.paused():
            self.worker.flush()
            outcomes = self.scheduler.advance_to(target)
        return outcomes, time.perf_counter() - started

    # -- what the views read ---------------------------------------------
    # :mod:`repro.service.views` folds these and reaches no further in.
    # None takes the queue lock — a serial advance holds it for a whole
    # scan, and ``/healthz`` must not wait on that; every owner first
    # copies what it iterates instead (one C-level call that allocates
    # nothing per element: ``QuarantineStore.snapshot`` says why), so a
    # read never raises under live ingest and is at worst one offer behind.

    def stats(self) -> ShardStats:
        return ShardStats(
            shard_id=self.shard_id,
            series=len(self.database),
            pending=self.worker.pending,
            counters=self.worker.counters(),
            scans=self.scheduler.scans,
            incremental=self.scheduler.incremental_counts(),
            quarantined_by_reason=dict(self.worker.admission.quarantined_by_reason),
            flush_seconds=self.worker.flush_seconds.state(),
        )

    def health(self) -> dict:
        """This shard's ``/healthz`` row.  *Saturated*: offers are now
        blocking, rejecting or evicting, depending on policy."""
        worker = self.worker
        pending = worker.pending
        return {
            "shard": self.shard_id,
            "pending": pending,
            "capacity": worker.capacity,
            "policy": worker.policy.value,
            "saturated": pending >= worker.capacity,
            "scans": self.scheduler.scans,
        }

    def quality(self) -> Tuple[dict, List[str]]:
        """This shard's ``/quality`` slice: the admission snapshot and the
        series evicted as stale."""
        return self.worker.admission.snapshot(), self.scheduler.stale_series()

    def unquarantine(self, name: str) -> int:
        """Release one series from quarantine; returns the points that
        were attributed to it.  Under the queue lock, like the offers
        that quarantine: released beside a concurrent ``add``, the
        store's total and its per-series counts drift apart for good."""
        with self.worker.paused():
            return self.worker.admission.release_series(name)

    # -- the durable form ------------------------------------------------

    def checkpoint_blob(self) -> bytes:
        """Everything the shard must find again after a restart, as one
        pickle taken under the queue lock: a sample is in the database
        or in the queue, never both or neither, and the worker's
        counters describe exactly the frames beside them."""
        with self.worker.paused():
            return pickle.dumps(
                {
                    "database": self.database,
                    "worker": self.worker,
                    "scheduler": self.scheduler,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )

    def restore(self, state: dict) -> None:
        """Install an unpickled :meth:`checkpoint_blob` — only while a
        service is being rebuilt, before any thread holds the worker (a
        live shard never replaces its database or worker).  Incremental
        scan anchors are kept: they are checked per series against the
        database they meet, exactly as after :meth:`adopt`."""
        self.database = state["database"]
        self.worker = state["worker"]
        self.scheduler = state["scheduler"]

    # -- the replicated form ---------------------------------------------

    @contextmanager
    def forking(self) -> Iterator[Tuple[DetectionScheduler, TimeSeriesDatabase]]:
        """Hold this shard still while a worker is forked with it.

        Under the queue lock throughout: flush in the parent (stragglers
        released, as the serial path does before it scans), hang a fresh
        :class:`WriteLog` (generation 0: what the fork holds), and yield
        the scheduler and database the child starts from.  A failed
        flush re-queues its batch and propagates, as on the serial path.
        """
        with self.worker.paused():
            self.worker.flush()
            self.worker.write_log = WriteLog(self.database)
            yield self.scheduler, self.database

    def delta(self) -> bytes:
        """What this shard's replica has not seen: flush, then cut the
        log.  ``b""`` when no replica is trusted — none forked yet, given
        up by :meth:`forget_replica`, or the log outgrew the database —
        and its worker must be forked afresh."""
        with self.worker.paused():
            self.worker.flush()
            log = self.worker.write_log
            if log is None:
                return b""
            return pickle.dumps(log.cut(), protocol=pickle.HIGHEST_PROTOCOL)

    def forget_replica(self) -> None:
        """Stop trusting the replica: the advance it made was not
        adopted as it was made, or the scheduler changed on this side."""
        self.worker.write_log = None

    def adopt(self, scheduler: DetectionScheduler) -> None:
        """Take back the scheduler a worker advanced over its replica.

        It scans the live database from here on.  Retention is the one
        thing an advance writes, and the worker wrote it to its replica:
        a cutoff it moved is applied again here, and logged.
        Incremental-scan anchors need nothing — they are validated
        against whatever database they meet, so points flushed meanwhile
        are the next scan's tail.
        """
        scheduler.database = self.database
        cutoff = scheduler.retention_cutoff
        with self.worker.paused():
            log = self.worker.write_log
            if cutoff != self.scheduler.retention_cutoff:
                self.database.apply_retention(cutoff)
                if log is not None and not log.trimmed(cutoff):
                    self.forget_replica()
            if self.worker.write_log is not None:
                log.generation += 1
        self.scheduler = scheduler
