"""Multi-process shard execution.

The paper's deployment scans different slices of the series space on a
serverless fleet (§5.1) whose functions *read* windows out of the
time-series database; one Python process hits the GIL long before it
hits the hardware.  This module fans per-shard
``DetectionScheduler.advance_to`` slices out to worker *processes*
under one ownership rule: **the parent always owns a shard's database
and ingest queue; a worker borrows a read-only snapshot and returns
scheduler state.**

1. the service takes each shard's
   :meth:`~repro.service.shard.Shard.snapshot`: under the queue lock,
   flush *in the parent*, then pickle the scheduler — monitors with
   their detector / dedup / incremental state, and the database it reads;
2. each worker process unpickles one scheduler, advances it to the
   target time, lets go of its database copy, and ships the scheduler
   and the scan outcomes back — a scan returns its own ledger (spans,
   counts, timings), so there is no metrics or trace transport and no
   process-local handle on either leg;
3. :meth:`~repro.service.shard.Shard.adopt` points each returned
   scheduler at the shard's **live** database and trims that to the last
   retention cutoff the copy applied (the scan path's only write);
   outcomes merge **in ascending shard-id order** — the order the serial
   path iterates shards — through the same ``_deliver`` the serial path
   uses, so what is published, ledger admission, funnel accumulation,
   and sink delivery are byte-identical to single-process execution.

Nothing live is ever replaced, so offers and flushes need no bracket
around an advance: what lands in the database while a worker scans its
copy is the next scan's tail (incremental anchors are ``(length, last
timestamp)``, checked against the database they meet next, as after any
background flush), and a fan-out that fails leaves every shard as it
was.  The merge barrier is the loop over
:meth:`ParallelShardExecutor.map_shards` results: report-level side
effects happen only in the parent, after all futures resolve.

Failure paths are first-class: a crashed worker (``BrokenProcessPool``)
or a shard advance that blows its deadline does not poison the cached
pool or fail the whole ``advance_to``.  The executor retries failed
shards with exponential backoff on a freshly created pool (a shard that
only broke as collateral of a neighbour's crash is rerun apart from it
at once, outside the budget), and — once retries are exhausted —
advances the failed shard *in-process* from the same snapshot blob.
Because a shard advance is a pure function of ``(blob, target)``,
retried and fallback advances produce the same outcomes a healthy worker
would, so the determinism contract survives every recovery path.  An
optional :class:`~repro.faults.FaultInjector` hooks the submit path: the
parent decides per-shard fault directives (crash / hang) that the worker
executes, which is how the chaos suite drives these recovery paths
deterministically.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.logging import get_logger
from repro.runtime.scheduler import DetectionScheduler, ScanOutcome

__all__ = ["ADVANCE_DEADLINE", "ShardAdvanceResult", "ParallelShardExecutor"]

_log = get_logger("repro.service.parallel")

#: Seconds one shard's advance may take in a worker process before it
#: counts as failed.  Far above a real advance (``service.advance.max_s``
#: is under 2 s on every benchmark workload); finite so that a worker
#: killed mid-task cannot park ``future.result()`` for ever.
ADVANCE_DEADLINE = 60.0

#: How many times a failed shard advance is retried on a (possibly
#: recreated) pool before the parent advances it in-process.
ADVANCE_RETRIES = 2

#: Base delay of the exponential backoff between retry rounds
#: (``RETRY_BACKOFF * 2**round`` seconds).
RETRY_BACKOFF = 0.05


@dataclass
class ShardAdvanceResult:
    """What one worker process ships back for one shard.

    Attributes:
        shard_id: The shard that was advanced.
        state: What came back: the advanced scheduler, detached from
            the database copy it scanned.
        outcomes: Scan outcomes, in the scheduler's deterministic
            order, each carrying its run's ledger for the parent to
            publish.
        elapsed: Wall-clock seconds the worker spent on this shard.
        retries: How many times this shard's advance was retried before
            this result was produced (0 on the happy path).
        fallback: ``"in_process"`` when the result came from the
            parent-process fallback after retries were exhausted,
            ``None`` when a pool worker produced it.
    """

    shard_id: int
    state: DetectionScheduler
    outcomes: List[ScanOutcome]
    elapsed: float
    retries: int = 0
    fallback: Optional[str] = None


def _advance_shard(
    shard_id: int,
    blob: bytes,
    target: float,
    fault: Optional[Tuple[str, float]] = None,
) -> ShardAdvanceResult:
    """Worker entry point: advance one shard snapshot to ``target``.

    Module-level so every multiprocessing start method can import it.
    ``fault`` is an injected directive decided by the parent's
    :class:`~repro.faults.FaultInjector` — ``("crash", _)`` kills this
    process hard (surfacing as ``BrokenProcessPool``), ``("hang", s)``
    sleeps ``s`` seconds before working (tripping the caller's
    per-shard deadline).  The in-process fallback always passes
    ``None``, which is what guarantees chaos runs make progress.
    """
    if fault is not None:
        kind, value = fault
        if kind == "crash":
            os._exit(13)
        elif kind == "hang":
            time.sleep(value)
    scheduler: DetectionScheduler = pickle.loads(blob)
    started = time.perf_counter()
    outcomes = scheduler.advance_to(target)
    elapsed = time.perf_counter() - started
    # Only scheduler state goes back: the database copy stays here.
    scheduler.database = None
    return ShardAdvanceResult(
        shard_id=shard_id,
        state=scheduler,
        outcomes=outcomes,
        elapsed=elapsed,
    )


class ParallelShardExecutor:
    """Fans shard advances out to a lazily created process pool.

    Args:
        workers: Worker process count (must be >= 1).  With one worker
            the service skips this executor entirely and runs the
            in-thread path; the executor still handles ``workers=1``
            correctly for direct use.
        deadline: Per-shard advance deadline in seconds.  A shard that
            blows it is treated as failed (the hung worker is abandoned
            with the recycled pool) and retried.  ``None`` waits for
            ever — which a SIGKILLed worker can make literal.
        injector: Optional :class:`~repro.faults.FaultInjector`; the
            submit path asks it for per-shard crash/hang directives.
        metrics: Optional registry-like object receiving the
            ``advance.retries`` / ``advance.fallbacks`` /
            ``advance.pool_recreations`` counters.

    Example::

        executor = ParallelShardExecutor(workers=4)
        results = executor.map_shards({0: blob0, 1: blob1}, target=3600.0)
        executor.close()
    """

    def __init__(
        self,
        workers: int,
        deadline: Optional[float] = ADVANCE_DEADLINE,
        injector: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.workers = workers
        self.deadline = deadline
        self.injector = injector
        self.metrics = metrics
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _recycle_pool(self) -> None:
        """Throw the pool away (broken, or wedged on a hung worker).

        ``wait=False`` abandons any still-running worker: its eventual
        result is discarded, which is safe because workers only ever
        mutate their own unpickled copies of shard state.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._inc("advance.pool_recreations")

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def map_shards(
        self, blobs: Dict[int, bytes], target: float
    ) -> List[ShardAdvanceResult]:
        """Advance every shard blob to ``target``; results sorted by id.

        The sort is the determinism contract: callers fold results in
        ascending shard-id order, matching the serial path's iteration
        order exactly.

        Failure handling: shards whose worker crashed, raised, or blew
        the deadline are retried (with exponential backoff, on a fresh
        pool when the old one broke) up to :data:`ADVANCE_RETRIES` times, then
        advanced in-process from the same snapshot.  Every shard in
        ``blobs`` is therefore represented in the returned list — a
        genuine deterministic error (a bug, not a crash) still
        propagates, from the in-process attempt.
        """
        results: Dict[int, ShardAdvanceResult] = {}
        retry_counts: Dict[int, int] = {shard_id: 0 for shard_id in blobs}
        remaining: Dict[int, bytes] = dict(sorted(blobs.items()))
        for attempt in range(ADVANCE_RETRIES + 1):
            if not remaining:
                break
            if attempt:
                time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
                self._inc("advance.retries", len(remaining))
                for shard_id in remaining:
                    retry_counts[shard_id] += 1
            failed = self._attempt(remaining, target, results, retry_counts)
            remaining = {shard_id: blobs[shard_id] for shard_id in sorted(failed)}
        for shard_id, blob in remaining.items():
            # Retries exhausted: advance in the parent from the same
            # snapshot.  No fault directive is ever passed here, so a
            # chaos plan cannot starve a shard forever.
            _log.warning(
                "shard advance falling back in-process",
                shard=shard_id,
                retries=retry_counts[shard_id],
            )
            result = _advance_shard(shard_id, blob, target)
            result.fallback = "in_process"
            self._inc("advance.fallbacks")
            results[shard_id] = result
        for shard_id, result in results.items():
            result.retries = retry_counts.get(shard_id, 0)
        return [results[shard_id] for shard_id in sorted(results)]

    def _attempt(
        self,
        shards: Dict[int, bytes],
        target: float,
        results: Dict[int, ShardAdvanceResult],
        retry_counts: Dict[int, int],
    ) -> List[int]:
        """Run one submission round; returns the shard ids that failed.

        One dead worker fails *every* in-flight future with
        ``BrokenProcessPool``, so several broken shards cannot be told
        culprit from collateral: each is rerun alone on a fresh pool
        (counted as a retry, but outside the budget), and only one that
        fails by itself is reported failed.
        """
        pool = self._ensure_pool()
        futures: Dict[int, Future] = {}
        failed: List[int] = []
        broken: List[int] = []
        timed_out = False
        for shard_id, blob in shards.items():
            fault = (
                self.injector.worker_directive(shard_id)
                if self.injector is not None
                else None
            )
            try:
                futures[shard_id] = pool.submit(
                    _advance_shard, shard_id, blob, target, fault
                )
            except BrokenProcessPool:
                broken.append(shard_id)
        for shard_id, future in futures.items():
            try:
                results[shard_id] = future.result(timeout=self.deadline)
            except BrokenProcessPool as error:
                broken.append(shard_id)
                _log.warning(
                    "shard advance worker crashed", shard=shard_id, error=str(error)
                )
            except FutureTimeout:
                timed_out = True
                failed.append(shard_id)
                self._inc("advance.deadline_exceeded")
                _log.warning(
                    "shard advance blew its deadline",
                    shard=shard_id,
                    deadline=self.deadline,
                )
            except Exception as error:
                failed.append(shard_id)
                _log.warning(
                    "shard advance raised", shard=shard_id, error=str(error)
                )
        if broken or timed_out:
            self._recycle_pool()
        if len(broken) > 1:
            self._inc("advance.retries", len(broken))
            for shard_id in sorted(broken):
                retry_counts[shard_id] += 1
                alone = {shard_id: shards[shard_id]}
                failed += self._attempt(alone, target, results, retry_counts)
        else:
            failed += broken
        return failed

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
