"""The detection scheduler.

Owns many monitors — each a :class:`~repro.core.pipeline.DetectionPipeline`
with the context its scans read and the state they carry forward — and
advances simulated time, running every monitor whose re-run interval has
elapsed.  The offline :class:`~repro.core.detector.FBDetect` facade
wraps the same.  Monitors due at the same instant are scanned one
after another, in registration order, on the calling thread; the paper's
fan-out (§5.1: serverless functions scanning different series side by
side) happens a level up, where the streaming service runs one scheduler
per shard and advances the shards in worker processes.

A scheduler reads its database and writes nothing to it except
retention.  It remembers the last cutoff it applied
(:attr:`DetectionScheduler.retention_cutoff`), so one that advanced over
a copy of a database can be pointed back at the original and the
original trimmed to match.

A scheduler holds no registry, trace store or sink: an advance
*returns* its :class:`ScanOutcome`\\ s — each scan's result, ledger and
seconds, a scan that raised included — and the caller hands them to
:func:`publish` (registry and trace store) and :func:`deliver_outcomes`
(sinks).  So a pickled scheduler carries its monitors and the database
it reads, and nothing process-local but the lock it re-creates; a
monitor's pipeline is built again from its configuration.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.config import DetectionConfig
from repro.core.pipeline import DetectionPipeline
from repro.core.types import MonitorState, PipelineResult, ScanContext
from repro.fleet.changes import ChangeLog
from repro.obs.logging import get_logger
from repro.profiling.stacktrace import StackTrace
from repro.reporting.report import build_report
from repro.runtime.sinks import IncidentSink, deliver
from repro.tsdb.database import TimeSeriesDatabase

__all__ = [
    "MonitorRegistration",
    "ScanOutcome",
    "DetectionScheduler",
    "publish",
    "deliver_outcomes",
]

_log = get_logger("repro.runtime.scheduler")


@dataclass
class MonitorRegistration:
    """One registered monitor.

    Attributes:
        name: Monitor label (shows up in outcomes).
        config: The monitor's detection configuration.
        switches: The rest of its :class:`DetectionPipeline` arguments.
        next_run: Simulated time of the next scheduled scan.
        context: What its scans read beside the TSDB.
        state: What its scans carry from one to the next.
    """

    name: str
    config: DetectionConfig
    switches: Dict[str, Any]
    next_run: float
    context: ScanContext
    state: MonitorState = field(init=False)

    def __post_init__(self) -> None:
        self.state = self.pipeline.new_state()

    @cached_property
    def pipeline(self) -> DetectionPipeline:
        """Built from ``config`` and ``switches`` at first use, here and
        wherever the registration is unpickled: it never rides a pickle."""
        return DetectionPipeline(self.config, **self.switches)

    def __getstate__(self) -> dict:
        return {key: value for key, value in vars(self).items() if key != "pipeline"}


@dataclass(frozen=True)
class ScanOutcome:
    """One monitor scan: what it found and the seconds it took.

    ``result`` is ``None`` for a scan that raised (the traceback is
    logged where it happened); its monitor is re-run at its next due
    time.
    """

    monitor: str
    now: float
    result: Optional[PipelineResult]
    seconds: float


def publish(outcomes: Iterable[ScanOutcome], metrics: Any, tracer: Any) -> None:
    """Record what ``outcomes`` say about themselves, in outcome order.

    The one place a scan's ledger reaches a metrics registry
    (``inc(name, n)`` / ``observe(name, value)``) and a trace store
    (``record(run)``): whoever advanced the scheduler — in this process
    or another — calls it with the outcomes it got back.
    """
    for outcome in outcomes:
        if outcome.result is None:
            metrics.inc("scheduler.scan_failures")
            continue
        metrics.observe("scheduler.scan_seconds", outcome.seconds)
        metrics.inc("scheduler.regressions_reported", len(outcome.result.reported))
        trace = outcome.result.trace
        for name, amount in trace.counts.items():
            metrics.inc(name, amount)
        for name, seconds in trace.timings.items():
            metrics.observe(name, seconds)
        tracer.record(trace)


def deliver_outcomes(
    outcomes: Iterable[ScanOutcome], sinks: Sequence[IncidentSink]
) -> None:
    """Report every regression in ``outcomes`` to every sink, for users
    of a bare scheduler (the streaming service adds its re-alert ledger
    between the two steps)."""
    for outcome in outcomes:
        for regression in outcome.result.reported if outcome.result else ():
            deliver(build_report(regression), sinks)


class DetectionScheduler:
    """Runs registered monitors against a shared TSDB over time.

    Args:
        database: The TSDB all monitors scan.
        retention: Seconds of history to keep; older points are dropped
            as time advances (0 disables retention).

    Concurrency: :meth:`advance_to` is safe to call from multiple
    threads — the scheduling loop runs under a lock, so each due scan
    executes exactly once and monitor state is never advanced twice for
    the same due time.

    Example::

        scheduler = DetectionScheduler(db)
        scheduler.register("frontfaas", table1_config("frontfaas_small"),
                           series_filter={"service": "frontfaas"})
        deliver_outcomes(scheduler.advance_to(simulation_end), [CollectingSink()])
    """

    def __init__(
        self,
        database: TimeSeriesDatabase,
        retention: float = 0.0,
    ) -> None:
        if retention < 0:
            raise ValueError("retention must be >= 0")
        self.database = database
        self.retention = retention
        #: The last cutoff handed to ``database.apply_retention``
        #: (``None`` before the first).
        self.retention_cutoff: Optional[float] = None
        #: Scans that returned a result (a scan that raised is not one).
        self.scans = 0
        self._monitors: Dict[str, MonitorRegistration] = {}
        self._clock = 0.0
        self._advance_lock = threading.RLock()

    @property
    def now(self) -> float:
        return self._clock

    def register(
        self,
        name: str,
        config: DetectionConfig,
        series_filter: Optional[Dict[str, str]] = None,
        change_log: Optional[ChangeLog] = None,
        samples: Sequence[StackTrace] = (),
        first_run: Optional[float] = None,
        **pipeline_kwargs,
    ) -> MonitorRegistration:
        """Register a monitor; its first scan happens at ``first_run``
        (default: one full window after time zero, when enough data
        exists).  ``change_log`` and ``samples`` are its scans' context;
        extra keyword arguments reach the underlying
        :class:`DetectionPipeline` (ablation switches, ``planned_changes`` ...).

        Raises:
            ValueError: On a duplicate monitor name.
        """
        if name in self._monitors:
            raise ValueError(f"monitor {name!r} already registered")
        registration = MonitorRegistration(
            name=name,
            config=config,
            switches=dict(pipeline_kwargs, series_filter=series_filter),
            next_run=first_run if first_run is not None else config.windows.total,
            context=ScanContext(tuple(samples), change_log or ChangeLog()),
        )
        self._monitors[name] = registration
        return registration

    def monitors(self) -> List[str]:
        """Registered monitor names, sorted."""
        return sorted(self._monitors)

    def stale_series(self) -> List[str]:
        """Series evicted from scanning for staleness, across monitors.

        Sorted union of every monitor's
        :attr:`~repro.core.types.MonitorState.stale` (surfaced on the
        service's ``/quality`` endpoint), each copied in one C-level call.
        """
        stale: set = set()
        for registration in list(self._monitors.values()):
            stale.update(registration.state.stale)
        return sorted(stale)

    def incremental_counts(self) -> Dict[str, int]:
        """Incremental-cache decisions summed over this scheduler's
        monitors: ``{"hits": ..., "misses": ...}``.  The caches are the one
        home of these counts; ``/metrics`` folds them from here as
        ``pipeline.incremental.*``."""
        counts = {"hits": 0, "misses": 0}
        for registration in list(self._monitors.values()):
            cache = registration.state.cache
            if cache is not None:
                counts["hits"] += cache.hits
                counts["misses"] += cache.misses
        return counts

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------

    def advance_to(self, target: float) -> List[ScanOutcome]:
        """Advance simulated time to ``target``, running due scans.

        Monitors due at the same instant are scanned in registration
        order; a monitor's next run is scheduled one re-run interval
        after the current one.

        Returns:
            Outcomes of every scan attempted, in execution order.

        Raises:
            ValueError: When moving backwards in time.
        """
        with self._advance_lock:
            if target < self._clock:
                raise ValueError(
                    f"cannot move time backwards ({target} < {self._clock})"
                )
            executed: List[ScanOutcome] = []

            while True:
                due_time = min(
                    (m.next_run for m in self._monitors.values() if m.next_run <= target),
                    default=None,
                )
                if due_time is None:
                    break
                self._clock = due_time
                due = [m for m in self._monitors.values() if m.next_run == due_time]
                executed.extend(self._run_batch(due, due_time))
                for monitor in due:
                    monitor.next_run = due_time + monitor.config.rerun_interval
                if self.retention > 0:
                    self.retention_cutoff = due_time - self.retention
                    self.database.apply_retention(self.retention_cutoff)

            self._clock = max(self._clock, target)
            return executed

    def _run_batch(
        self, monitors: Sequence[MonitorRegistration], now: float
    ) -> List[ScanOutcome]:
        outcomes: List[ScanOutcome] = []
        for monitor in monitors:
            started = time.perf_counter()
            try:
                result: Optional[PipelineResult] = monitor.pipeline.run(
                    self.database, now, monitor.context, monitor.state
                )
                self.scans += 1
            except Exception as error:
                # One monitor's scan blowing up must not abort the whole
                # batch (every other due monitor would silently miss its
                # tick).  The failed monitor keeps its state and is
                # re-run at its next due time.
                result = None
                _log.exception(
                    "monitor scan failed",
                    monitor=monitor.name,
                    now=now,
                    error=str(error),
                )
            outcomes.append(
                ScanOutcome(monitor.name, now, result, time.perf_counter() - started)
            )
        return outcomes

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle support: the lock is dropped and re-created."""
        state = dict(self.__dict__)
        state.pop("_advance_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._advance_lock = threading.RLock()
