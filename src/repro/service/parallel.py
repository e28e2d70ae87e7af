"""Multi-process shard execution: resident workers holding read replicas.

The paper's deployment scans different slices of the series space on a
fleet of workers that *read* the time-series database (§5.1); one Python
process hits the GIL long before it hits the hardware.  This module
keeps ``workers`` long-lived processes — shard ``i`` always on worker
``i % workers`` — under one ownership rule: **the parent is the only
writer of a shard's database and ingest queue; a worker holds a read
replica (a seed plus, in order, every write the parent made since) and
returns scheduler state.**

Per advance the parent cuts one blob per shard, under the queue lock
after a flush *in the parent*: a **delta**
(:meth:`~repro.service.shard.Shard.delta`: the ordered log of what it
wrote to that database since the last cut, naming the replica generation
it extends) or, for a shard with no replica it trusts, a **seed**
(:meth:`~repro.service.shard.Shard.seed`: the pickled scheduler with the
database it reads, which any worker accepts).  The worker replays a
delta through the same ``write_batch`` / ``apply_retention`` the parent
ran (same code, same order: an equal database), advances the scheduler
it kept over the replica, and ships back a detached copy of it with the
scan outcomes, each carrying its ledger — nothing process-local rides
either leg.  :meth:`~repro.service.shard.Shard.adopt` points that
scheduler at the **live** database; outcomes merge **in ascending
shard-id order**, as the serial path iterates shards, through the same
``_deliver``, so reports are byte-identical to one process's.

A replica is trusted by generation, not by hope: both sides count the
advances a shard made since its seed, and a worker handed a delta for
any other generation *refuses* it and is sent a seed at once.  The
parent gives a replica up — the next blob is a seed — whenever an
advance did not come back clean at the first attempt, or it changed the
scheduler itself.  Nothing live is ever replaced, so a failed fan-out
leaves every shard as it was; one request is in flight per worker, so a
dead process names exactly the shard it was scanning.  A worker that
crashed or blew the deadline is killed, reaped and respawned (its other
replicas go with it: their next deltas are refused) and that shard alone
is retried with backoff, then advanced by the parent in-process, which
keeps no replica.  Both run from a full seed, so a shard advance stays a
pure function of ``(seed, target)`` on every recovery path (DESIGN.md has
the failure table); a :class:`~repro.faults.FaultInjector` can decide
crash / hang directives the worker executes, for the chaos suite.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.logging import get_logger
from repro.runtime.scheduler import DetectionScheduler, ScanOutcome

__all__ = ["ADVANCE_DEADLINE", "ShardAdvanceResult", "ParallelShardExecutor"]

_log = get_logger("repro.service.parallel")

#: Seconds one shard's advance may take before it counts as failed and its
#: worker is killed.  Far above a real advance (under 2 s on every benchmark
#: workload); finite so a wedged worker cannot park ``advance_to`` for ever.
ADVANCE_DEADLINE = 60.0

#: Retry rounds for a failed shard advance before the parent runs it.
ADVANCE_RETRIES = 2

#: Backoff between retry rounds: ``RETRY_BACKOFF * 2**round`` seconds.
RETRY_BACKOFF = 0.05


class ReplicaRefused(Exception):
    """A delta met no replica of the generation it extends: "seed me"."""


@dataclass
class ShardAdvanceResult:
    """What one worker process ships back for one shard.

    Attributes:
        shard_id: The shard that was advanced.
        state: The advanced scheduler, detached from the replica.
        outcomes: Scan outcomes, in the scheduler's deterministic
            order, each carrying its ledger for the parent to publish.
        elapsed: Wall-clock seconds the worker spent on this shard.
        retries: Retry rounds before this result (0 on the happy path).
        fallback: ``"in_process"`` when the parent produced it after
            retries were exhausted, ``None`` when a worker did.
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
    replicas: Optional[Dict[int, tuple]] = None,
) -> ShardAdvanceResult:
    """Worker entry point: bring one shard level with ``blob``, advance it.

    ``replicas`` is the calling worker's ``shard id -> (generation,
    scheduler, database)``; the parent's fallback passes none and so
    keeps none.  ``fault`` is an injected directive — ``("crash", _)``
    kills this process hard, ``("hang", s)`` sleeps ``s`` seconds first
    — which the fallback never passes, so chaos runs make progress.
    Raises :class:`ReplicaRefused` for a delta whose generation is not held.
    """
    if fault is not None:
        kind, value = fault
        if kind == "crash":
            os._exit(13)
        elif kind == "hang":
            time.sleep(value)
    payload = pickle.loads(blob)
    if isinstance(payload, DetectionScheduler):  # a seed
        generation, scheduler, database = 0, payload, payload.database
    else:
        held = replicas.get(shard_id) if replicas else None
        if held is None or held[0] != payload.generation:
            raise ReplicaRefused(f"shard {shard_id}: generation {payload.generation}")
        generation, scheduler, database = held
        payload.replay(database)
        scheduler.database = database
    started = time.perf_counter()
    outcomes = scheduler.advance_to(target)
    elapsed = time.perf_counter() - started
    # Only scheduler state goes back: the replica stays here.
    scheduler.database = None
    if replicas is not None:
        replicas[shard_id] = (generation + 1, scheduler, database)
    return ShardAdvanceResult(shard_id, scheduler, outcomes, elapsed)


def _serve(conn: Connection, inherited: Sequence[Connection] = ()) -> None:
    """A resident worker's life: one request at a time, its replicas kept
    in between.  It answers a result, a :class:`ReplicaRefused`, or the
    text of what the advance raised.  ``inherited``: the parent-side pipe
    ends the fork copied in (this worker's and every earlier one's); left
    open here, a dead parent would never read as EOF."""
    for end in inherited:
        end.close()
    replicas: Dict[int, tuple] = {}
    while True:
        try:
            request = conn.recv()
        except EOFError:  # the parent is gone
            return
        try:
            # Through the module global: a tracer wraps it before the fork.
            answer: Any = _advance_shard(*request, replicas)
        except ReplicaRefused as refusal:
            answer = refusal
        except Exception as error:
            replicas.pop(request[0], None)  # how far it got is unknown
            answer = repr(error)
        conn.send(answer)


class ParallelShardExecutor:
    """Advances shards on ``workers`` resident processes, forked here.

    Args:
        workers: Worker process count (must be >= 1).  With one worker
            the service skips this executor and runs in-thread.
        deadline: Per-shard advance deadline in seconds.  A shard that blows it
            is failed and retried, its worker replaced.  ``None`` waits for ever.
        injector: Optional :class:`~repro.faults.FaultInjector`; the
            send path asks it for per-shard crash/hang directives.
        metrics: Optional registry-like object receiving the ``advance.*``
            counters (bytes out and in, retries, fallbacks, deadlines, respawns).
        seeds: ``shard id -> seed blob``, asked when a shard must start
            over (delta refused, retry, fallback).  Without it the blob
            given to :meth:`map_shards` is sent again: it was a seed.

    Example::

        with ParallelShardExecutor(workers=4) as executor:
            results = executor.map_shards({0: seed0, 1: seed1}, target=3600.0)
    """

    def __init__(
        self,
        workers: int,
        deadline: Optional[float] = ADVANCE_DEADLINE,
        injector: Optional[Any] = None,
        metrics: Optional[Any] = None,
        seeds: Optional[Callable[[int], bytes]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.workers = workers
        self.deadline = deadline
        self.injector = injector
        self.metrics = metrics
        self.seeds = seeds
        self._procs: List[Tuple[multiprocessing.Process, Connection]] = []
        for _ in range(workers):  # one at a time: each closes the ends made before it
            self._procs.append(self._spawn())

    def _spawn(self) -> Tuple[multiprocessing.Process, Connection]:
        ours, theirs = multiprocessing.Pipe()
        inherited = [ours] + [conn for _, conn in self._procs]
        process = multiprocessing.Process(target=_serve, args=(theirs, inherited), daemon=True)
        process.start()
        theirs.close()
        return process, ours

    def worker_pids(self) -> List[int]:
        """Process ids of the live workers, by worker index."""
        return [process.pid for process, _ in self._procs]

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def map_shards(self, blobs: Dict[int, bytes], target: float) -> List[ShardAdvanceResult]:
        """Advance every shard blob to ``target``; results sorted by id.

        The sort is the determinism contract: callers fold results in
        ascending shard-id order, as the serial path iterates shards.
        Shards whose worker crashed, raised, or blew the deadline are
        retried from a seed, with exponential backoff, for
        :data:`ADVANCE_RETRIES` rounds, then advanced in-process from one:
        every shard in ``blobs`` is returned, and a deterministic error (a
        bug, not a crash) propagates from there.
        """
        seed = self.seeds or blobs.__getitem__
        results: Dict[int, ShardAdvanceResult] = {}
        remaining: Dict[int, bytes] = dict(sorted(blobs.items()))
        for attempt in range(ADVANCE_RETRIES + 1):
            if not remaining:
                break
            if attempt:
                time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
                self._inc("advance.retries", len(remaining))
            failed = self._attempt(remaining, target, results, attempt)
            remaining = {shard_id: seed(shard_id) for shard_id in sorted(failed)}
        for shard_id, blob in remaining.items():
            # No fault directive is passed: a chaos plan cannot starve a shard.
            _log.warning("shard advance falling back in-process", shard=shard_id)
            results[shard_id] = result = _advance_shard(shard_id, blob, target)
            result.retries, result.fallback = ADVANCE_RETRIES, "in_process"
            self._inc("advance.fallbacks")
        return [results[shard_id] for shard_id in sorted(results)]

    def _attempt(
        self, shards: Dict[int, bytes], target: float,
        results: Dict[int, ShardAdvanceResult], attempt: int,
    ) -> List[int]:
        """Run round ``attempt``, each worker taking its shards one
        after another; returns the shard ids that failed."""
        # Decided up front, in shard order, whatever order workers finish in.
        directive = self.injector.worker_directive if self.injector else lambda _: None
        faults = {shard_id: directive(shard_id) for shard_id in shards}
        queues = [deque(s for s in shards if s % self.workers == w) for w in range(self.workers)]
        due: Dict[int, float] = {}  # busy worker -> when the head of its queue is due
        failed: List[int] = []
        while True:
            for index, queue in enumerate(queues):
                if queue and index not in due:
                    blob = shards[queue[0]]
                    try:
                        request = (queue[0], blob, target, faults.pop(queue[0], None))
                        self._procs[index][1].send(request)
                        self._inc("advance.bytes_out", len(blob))  # only what left
                    except OSError:
                        pass  # it died idle: the read below says so
                    due[index] = time.monotonic() + (self.deadline or float("inf"))
            if not due:
                return failed
            wake = max(min(due.values()) - time.monotonic(), 0.0)
            conns = [self._procs[index][1] for index in due]
            ready = wait(conns, None if self.deadline is None else wake)
            now = time.monotonic()
            for index in [i for i in due if self._procs[i][1] in ready or due[i] <= now]:
                shard_id = queues[index][0]
                del due[index]
                answer = self._answer(index, self._procs[index][1] in ready)
                if isinstance(answer, ReplicaRefused) and self.seeds is not None:
                    shards[shard_id] = self.seeds(shard_id)  # next, to the same worker
                    continue
                queues[index].popleft()
                if isinstance(answer, ShardAdvanceResult):
                    answer.retries = attempt  # every round retries all that failed
                    results[shard_id] = answer
                else:
                    failed.append(shard_id)
                    _log.warning("shard advance failed", shard=shard_id, error=str(answer))

    def _answer(self, index: int, in_time: bool) -> Any:
        """A result, a refusal, or the text of what went wrong — by then
        a worker that died or ran out of time is reaped and replaced."""
        process, conn = self._procs[index]
        if in_time:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                why = "worker crashed"
            else:
                self._inc("advance.bytes_in", len(data))
                return pickle.loads(data)
        else:
            why = f"blew its {self.deadline} s deadline"
            self._inc("advance.deadline_exceeded")
        process.kill()
        process.join()
        conn.close()
        self._procs[index] = self._spawn()
        self._inc("advance.pool_recreations")
        return why

    def close(self) -> None:
        """Kill and join every worker: none holds anything of its own."""
        for process, conn in self._procs:
            process.kill()
            process.join()
            conn.close()
        self._procs = []

    def __enter__(self) -> "ParallelShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
