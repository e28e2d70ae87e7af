"""The sharded streaming detection service.

Composes the pieces of this package into the paper's deployment shape
(§5.1: a serverless fleet scanning different series in parallel),
scaled down to one process:

- a :class:`~repro.service.router.ConsistentHashRouter` maps each
  per-series frame's name to a shard (one hash per frame);
- every shard owns its own
  :class:`~repro.tsdb.database.TimeSeriesDatabase`, a
  :class:`~repro.service.ingest.ShardIngestWorker` (bounded queue +
  backpressure + batch flush), and a
  :class:`~repro.runtime.scheduler.DetectionScheduler` whose monitors
  carry the per-shard dedup state;
- :meth:`StreamingDetectionService.advance_to` flushes queues, runs due
  scans, filters re-alerts through a durable reported-ledger, and
  delivers :class:`~repro.reporting.report.IncidentReport`\\ s to sinks;
  with ``workers > 1`` the scans run in resident worker processes, each
  over a read replica — the shard keeps its database and queue
  throughout, only what it wrote since the last advance goes out and
  only the advanced scheduler comes back;
- :meth:`StreamingDetectionService.checkpoint` /
  :meth:`StreamingDetectionService.restore` persist the whole thing so
  a restarted service resumes without re-alerting on regressions it
  already reported — and without losing queued samples.

This module is routing, advance, delivery, lifecycle and checkpoint.
What a shard is, how it is serialised and who holds a process-local
handle afterwards is :mod:`repro.service.shard`; the on-disk format is
:mod:`repro.service.checkpoint`; everything an operator *reads* —
``/healthz``, ``/status``, ``/quality``, … and :meth:`stats` — is a fold
over shards in :mod:`repro.service.views`.

Deduplication scope: SOM/pairwise dedup runs *within* a shard (each
shard's monitors carry their own dedup state).  A frame is routed by its series name
alone, so series of one service share a shard only by hash accident,
and regressions on series in different shards are never deduplicated
against each other.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.config import DetectionConfig
from repro.core.pipeline import FunnelCounters
from repro.core.types import Regression
from repro.quality import QualityGate
from repro.obs.logging import correlation_id, get_logger, log_context
from repro.obs.spans import EventLog, TraceStore
from repro.reporting.report import IncidentReport, build_report
from repro.runtime.scheduler import ScanOutcome, publish
from repro.runtime.sinks import IncidentSink, deliver
from repro.service.checkpoint import CheckpointManager
from repro.service.ingest import BackpressurePolicy, Sample, frames_of
from repro.service.metrics import MetricsRegistry
from repro.service.parallel import ParallelShardExecutor
from repro.service.router import ConsistentHashRouter
from repro.service import views
from repro.service.shard import Shard
from repro.tsdb.columnar import SeriesFrame
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["StreamingDetectionService"]

_log = get_logger("repro.service")

#: Window (seconds of change time) within which a regression on the same
#: metric counts as already reported.
REALERT_TOLERANCE = 3600.0

#: The service's own durable fields, declared once: manifest ``meta``
#: key -> the attribute ``checkpoint()`` reads and ``restore()`` writes.
#: Beside them ride ``n_shards`` (it rebuilds the ring) and ``funnel`` and
#: ``metrics`` (objects with a snapshot form of their own).
_DURABLE = {
    "clock": "_clock",
    "reported": "_reported",
    "suppressed_realerts": "_suppressed_realerts",
    "reported_ledger": "_reported_ledger",
    "monitors": "_monitor_specs",
}


class StreamingDetectionService:
    """Sharded streaming ingestion + detection with self-metrics.

    Args:
        n_shards: Number of shards (each with its own TSDB, queue, and
            detector state).
        sinks: Incident sinks for delivered reports.
        queue_capacity: Per-shard ingest queue bound.
        backpressure: Policy when a shard queue is full; ``BLOCK``, the
            default, loses nothing offered.
        batch_size: Samples per TSDB flush batch.
        workers: Worker *processes* for shard advances, forked by the
            advances that need them (the service starts no threads).  With
            ``workers <= 1`` detection runs in-thread; with more,
            :meth:`advance_to` hands each shard's new writes to the
            replica a :class:`~repro.service.parallel.ParallelShardExecutor`
            worker holds, advances shards truly in parallel, and merges
            the results deterministically (ascending shard id —
            identical report order to the serial path).

    Every shard runs per-series admission on ingest (NaN/Inf quarantine,
    negative-value repair, counter-reset rebasing, last-write-wins
    repeats, out-of-order reordering; see
    :mod:`repro.quality.admission`), and every monitor scans through a
    gap-aware :class:`~repro.quality.gaps.QualityGate`.

    Example::

        service = StreamingDetectionService(n_shards=4, sinks=[sink])
        service.register_monitor("gcpu", config, series_filter={"metric": "gcpu"})
        service.ingest_many(samples)
        service.advance_to(stream_end)
        print(service.stats().render())
    """

    def __init__(
        self,
        n_shards: int = 4,
        sinks: Sequence[IncidentSink] = (),
        queue_capacity: int = 1024,
        backpressure: BackpressurePolicy = BackpressurePolicy.BLOCK,
        batch_size: int = 256,
        workers: int = 1,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.n_shards = n_shards
        self.workers = workers
        self.sinks = list(sinks)
        self.metrics = MetricsRegistry()
        self.traces = TraceStore()
        self.events = EventLog()
        self._executor: Optional[ParallelShardExecutor] = (
            ParallelShardExecutor(workers, self._replicas, metrics=self.metrics)
            if workers > 1
            else None
        )
        self.router = ConsistentHashRouter(range(n_shards))
        self._shards: Dict[int, Shard] = {
            shard_id: Shard(
                shard_id,
                queue_capacity=queue_capacity,
                backpressure=BackpressurePolicy(backpressure),
                batch_size=batch_size,
            )
            for shard_id in range(n_shards)
        }
        self._clock = 0.0
        self._reported_ledger: Dict[str, List[float]] = {}
        self._suppressed_realerts = 0
        self._reported = 0
        self.funnel = FunnelCounters()
        self._monitor_specs: List[dict] = []
        # Wall clock is for display only; recovery/aging decisions use
        # the monotonic reading, which an NTP step cannot move.
        self._last_checkpoint_at: Optional[float] = None
        self._last_checkpoint_mono: Optional[float] = None
        # Per-shard degradation reason, shard_id -> reason string: set
        # when an advance's recovery path engages and cleared by the
        # next clean one, so /healthz shows degraded -> ok transitions
        # around each fault.
        self._degraded: Dict[int, str] = {}
        self._degraded_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Monitors
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    def _set_degraded(self, shard_id: int, reason: str) -> None:
        with self._degraded_lock:
            previous = self._degraded.get(shard_id)
            self._degraded[shard_id] = reason
        if previous != reason:
            self.metrics.inc("service.degraded_transitions")
            self.events.record("degraded", shard=shard_id, reason=reason)

    def _clear_degraded(self, shard_id: int) -> None:
        with self._degraded_lock:
            if self._degraded.pop(shard_id, None) is None:
                return
        self.events.record("recovered", shard=shard_id)

    def degraded_reasons(self) -> Dict[int, str]:
        """Per-shard degradation reason (empty when fully healthy)."""
        with self._degraded_lock:
            return dict(self._degraded)

    def unquarantine(self, name: str) -> int:
        """Release one series from quarantine on every shard.

        Clears its quarantine records and resets its quality score —
        the operator acknowledgement that the upstream data source was
        fixed (the points themselves were irreparable and stay gone).

        Returns:
            How many quarantined points were attributed to the series.
        """
        released = sum(shard.unquarantine(name) for shard in self._shards.values())
        if released:
            self.metrics.inc("quality.released", released)
            self.events.record("series_unquarantined", series=name, points=released)
            _log.info("series unquarantined", series=name, points=released)
        return released

    def register_monitor(
        self,
        name: str,
        config: DetectionConfig,
        series_filter: Optional[Dict[str, str]] = None,
        first_run: Optional[float] = None,
        incremental: bool = True,
        **pipeline_kwargs,
    ) -> None:
        """Register a monitor on *every* shard.

        Each shard gets its own pipeline (and monitor state) scanning the
        shard-local slice of the series space, gap-aware through a
        :class:`~repro.quality.gaps.QualityGate`: low-coverage windows
        are suppressed and stale series evicted.  ``change_log`` and
        ``samples``, when given, are every shard's scan context.  The
        incremental scan cache is on: re-scans over quiet series then
        cost O(n) in new points instead of O(window).  ``incremental=False``
        scans every due series in full, the baseline the screen's
        deferrals are measured against.  Each scan's funnel spans are
        published into the service's :attr:`traces` store.  Register
        monitors before ingest: a later one reads what was kept for them.
        """
        for shard in self._shards.values():
            shard.scheduler.register(
                name,
                config,
                series_filter=series_filter,
                first_run=first_run,
                incremental=incremental,
                quality_gate=QualityGate(),
                **pipeline_kwargs,
            )
            shard.forget_replica()  # its scheduler has no such monitor
        self._monitor_specs.append(
            {
                "name": name,
                "config": config.name,
                "series_filter": dict(series_filter or {}),
            }
        )

    def monitors(self) -> List[str]:
        """Registered monitor names (identical on every shard), sorted."""
        return sorted(spec["name"] for spec in self._monitor_specs)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(
        self,
        name: str,
        timestamp: float,
        value: float,
        tags: Optional[Dict[str, str]] = None,
    ) -> bool:
        """Route one point to its shard; returns whether it was accepted."""
        return bool(self.ingest_frames([SeriesFrame(name, tags, [timestamp], [value])]))

    def ingest_sample(self, sample: Sample) -> bool:
        return self.ingest(sample.name, sample.timestamp, sample.value, sample.tags)

    def ingest_many(self, samples: Sequence[Sample]) -> int:
        """Offer ``samples`` as one frame per series (first-appearance
        order, each series in arrival order); returns how many were
        accepted."""
        return self.ingest_frames(frames_of(samples))

    def ingest_frames(self, frames: Sequence[SeriesFrame]) -> int:
        """Route per-series frames to their shards — the unit of ingest.

        Each shard is offered its frames once, as one batch in arrival
        order; shards are offered in the order their first frame
        arrived.

        Returns:
            How many rows were accepted (buffered, or held for
            reordering).
        """
        batches: Dict[int, List[SeriesFrame]] = {}
        shard_for = self.router.shard_for
        for frame in frames:
            batches.setdefault(shard_for(frame.name), []).append(frame)
        return sum(
            self._shards[shard_id].worker.offer(batch) for shard_id, batch in batches.items()
        )

    def flush(self) -> int:
        """Drain every shard queue into its TSDB; returns samples written."""
        return sum(shard.worker.flush() for shard in self._shards.values())

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def advance_to(self, target: float) -> List[IncidentReport]:
        """Flush queues, run every due scan, and deliver new reports.

        With ``workers > 1``, shard advances run in parallel worker
        processes; the merge below happens strictly in ascending shard
        id — the same order the serial loop visits shards — so the two
        modes deliver identical report sequences for identical inputs
        (the merge barrier; see :mod:`repro.service.parallel`).

        Regressions whose (metric, change time) the service has already
        alerted on — in this life or a checkpointed previous one — are
        suppressed instead of re-delivered.

        Returns:
            The incident reports delivered to sinks by this call.
        """
        delivered: List[IncidentReport] = []
        with self.metrics.timer("service.advance_seconds"):
            if self._executor is not None and self.n_shards > 1:
                self._advance_parallel(target, delivered)
            else:
                for shard in self._shards.values():
                    self._deliver(shard, *shard.advance(target), delivered)
        self._forget_reported()
        self._clock = max(self._clock, target)
        return delivered

    def _advance_parallel(
        self, target: float, delivered: List[IncidentReport]
    ) -> None:
        """Fan shard advances out to worker processes and merge back.

        Each worker brings its replica level with what the shard wrote
        since the last advance (or is forked afresh) and returns the
        advanced scheduler; the shards keep their databases and queues,
        so there is nothing to roll back — a fan-out that raises leaves
        every shard as it was, flushed, and every replica untrusted.  A
        shard whose worker failed first comes back with no state and is
        advanced here, before anything is adopted."""
        try:
            blobs = {shard_id: shard.delta() for shard_id, shard in self._shards.items()}
            results = self._executor.map_shards(blobs, target)  # sorted by id
            advanced = [
                (result.outcomes, result.elapsed) if result.state is not None
                else self._shards[result.shard_id].advance(target)
                for result in results
            ]
        except BaseException:
            # Logs were cut for advances that will not be adopted.
            for shard in self._shards.values():
                shard.forget_replica()
            raise
        self.metrics.inc("service.parallel_advances")
        for result, (outcomes, elapsed) in zip(results, advanced):
            shard = self._shards[result.shard_id]
            if result.state is None:
                self._set_degraded(result.shard_id, "in_process_fallback")
                shard.forget_replica()  # start over from a fork
            else:
                self._clear_degraded(result.shard_id)
                shard.adopt(result.state)
            self._deliver(shard, outcomes, elapsed, delivered)

    @contextmanager
    def _replicas(self, index: int) -> Iterator[Dict[int, tuple]]:
        """What worker ``index`` is forked holding: each of its shards'
        scheduler and database, held still until the fork is done."""
        with ExitStack() as held:
            yield {
                shard_id: held.enter_context(shard.forking())
                for shard_id, shard in self._shards.items()
                if shard_id % self.workers == index
            }

    def _deliver(
        self,
        shard: Shard,
        outcomes: Sequence[ScanOutcome],
        elapsed: float,
        delivered: List[IncidentReport],
    ) -> None:
        """Fold one shard's advance (its scan outcomes and how long it
        took) into service-level state.

        Shared by the serial and parallel paths so what is published,
        ledger admission, funnel accumulation, and sink delivery are
        identical in both.
        """
        publish(outcomes, self.metrics, self.traces)
        outcomes = [outcome for outcome in outcomes if outcome.result is not None]
        self.metrics.observe("service.shard_advance_seconds", elapsed)
        for outcome in outcomes:
            self.funnel.merge(outcome.result.funnel)
            for regression in outcome.result.reported:
                metric = regression.context.metric_id
                # Deterministic in (series, change time): the same
                # incident carries the same alert id across serial and
                # parallel execution and across restarts.
                alert = correlation_id(
                    metric, regression.change_time, prefix="alert"
                )
                with log_context(
                    series=metric, alert=alert, shard=shard.shard_id
                ):
                    if not self._ledger_admit(regression):
                        self._suppressed_realerts += 1
                        _log.info(
                            "re-alert suppressed",
                            monitor=outcome.monitor,
                            change_time=regression.change_time,
                        )
                        continue
                    report = build_report(regression)
                    taken = deliver(report, self.sinks, self._sink_failed)
                    if taken:
                        self.metrics.inc("service.sinks.delivered", taken)
                    delivered.append(report)
                    self._reported += 1
                    _log.info(
                        "incident delivered",
                        monitor=outcome.monitor,
                        detected_at=outcome.now,
                        magnitude=regression.magnitude,
                        sinks=len(self.sinks),
                    )

    def _sink_failed(
        self, sink: IncidentSink, report: IncidentReport, error: Exception
    ) -> None:
        """One failed delivery attempt, counted and put on the event log:
        a chronically broken sink shows on ``/metrics`` and ``/faults``
        instead of silently eating alerts."""
        self.metrics.inc("service.sinks.errors")
        self.events.record(
            "sink_error",
            sink=type(sink).__name__,
            metric=report.metric_id,
            error=str(error),
        )

    def _ledger_admit(self, regression: Regression) -> bool:
        """Record-and-admit unless already reported within tolerance."""
        metric = regression.context.metric_id
        priors = self._reported_ledger.setdefault(metric, [])
        for prior in priors:
            if abs(prior - regression.change_time) <= REALERT_TOLERANCE:
                return False
        priors.append(float(regression.change_time))
        return True

    def _forget_reported(self) -> None:
        """Drop the ledger entries no later regression can match: each
        shard reports change times at or after its retention cutoff."""
        cutoffs = [shard.retention_cutoff for shard in self._shards.values()]
        if None in cutoffs:
            return
        cutoff = min(cutoffs)
        for metric, priors in list(self._reported_ledger.items()):
            kept = [prior for prior in priors if cutoff - prior <= REALERT_TOLERANCE]
            if kept:
                self._reported_ledger[metric] = kept
            else:
                del self._reported_ledger[metric]

    def close(self) -> None:
        """Release resources: the worker processes, and the sinks.

        Sinks close last (and each in isolation) so buffered deliveries
        — a webhook queue draining, a held file handle — get their
        flush-on-close after the final advance's reports went out.
        """
        if self._executor is not None:
            self._executor.close()
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as error:
                self.metrics.inc("service.sinks.errors")
                _log.exception(
                    "sink close failed",
                    sink=type(sink).__name__,
                    error=str(error),
                )

    def __enter__(self) -> "StreamingDetectionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> views.ServiceStats:
        """A snapshot of service health: the per-shard fold of
        :func:`repro.service.views.stats`, beside the other views."""
        return views.stats(self)

    def shard_database(self, shard_id: int) -> TimeSeriesDatabase:
        """Direct access to one shard's TSDB (tests, demos)."""
        return self._shards[shard_id].database

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, directory: str) -> str:
        """Write a full checkpoint; returns the manifest path.

        Captures per-shard TSDBs, un-flushed queue contents, scheduler
        clocks and monitors (configuration, context, state), the
        reported-ledger, the aggregate funnel, and the registry's snapshot.
        """
        meta = {key: getattr(self, attr) for key, attr in _DURABLE.items()}
        meta.update(
            n_shards=self.n_shards,
            funnel=self.funnel.counts,
            metrics=self.metrics.snapshot(),
        )
        path = CheckpointManager(directory).save(
            meta,
            {shard_id: shard.checkpoint_blob() for shard_id, shard in self._shards.items()},
        )
        self._last_checkpoint_at = time.time()
        self._last_checkpoint_mono = time.monotonic()
        self.events.record("checkpoint_written", clock=self._clock)
        _log.info(
            "checkpoint written",
            path=path,
            clock=self._clock,
            shards=self.n_shards,
            reported=self._reported,
        )
        return path

    @classmethod
    def restore(
        cls,
        directory: str,
        sinks: Sequence[IncidentSink] = (),
        **service_kwargs,
    ) -> "StreamingDetectionService":
        """Rebuild a service from a checkpoint directory.

        The restored service resumes exactly where the checkpointed one
        stopped: queued-but-unflushed samples are still queued, and
        regressions already reported are not re-alerted.  Incremental
        scan anchors come back with the data they were taken on and are
        checked per series like any other, so the first advance after a
        restore is an ordinary screened one.

        When the newest checkpoint generation is corrupt (bad checksum,
        truncated blob, damaged manifest), the load falls back to the
        next intact generation: ``checkpoint.fallbacks`` counts the
        skipped generations and a ``checkpoint_fallback`` event records
        them, so silent restores from stale state cannot happen.

        Raises:
            CheckpointError: When the checkpoint is missing entirely or
                every retained generation is corrupt.
        """
        manager = CheckpointManager(directory)
        meta, shard_states = manager.load()
        service = cls(
            n_shards=meta["n_shards"],
            sinks=sinks,
            **service_kwargs,
        )
        for shard_key, state in shard_states.items():
            service._shards[int(shard_key)].restore(state)
        for key, attr in _DURABLE.items():
            setattr(service, attr, meta[key])
        service.funnel.counts.update(meta["funnel"])
        service.metrics.restore(meta["metrics"])
        service.metrics.inc("service.restores")
        load_info = manager.last_load() or {}
        fallbacks = int(load_info.get("fallbacks", 0) or 0)
        if fallbacks:
            service.metrics.inc("checkpoint.fallbacks", fallbacks)
            service.events.record(
                "checkpoint_fallback",
                generation=load_info.get("generation"),
                skipped=load_info.get("skipped"),
            )
            _log.warning(
                "restore fell back past corrupt checkpoint generations",
                directory=directory,
                generation=load_info.get("generation"),
                skipped=fallbacks,
            )
        # The restored in-memory state is exactly as fresh as the load;
        # the trace ring buffer starts empty (process-local state).
        service._last_checkpoint_at = time.time()
        service._last_checkpoint_mono = time.monotonic()
        _log.info(
            "service restored",
            directory=directory,
            clock=service._clock,
            shards=service.n_shards,
            reported=service._reported,
        )
        return service
