"""Multi-process shard execution: resident workers holding read replicas.

The paper scans slices of the series space on a fleet of workers that
*read* the time-series database (§5.1).  This module keeps ``workers``
long-lived processes — shard ``i`` always on worker ``i % workers`` —
under one ownership rule: **the parent is the only writer of a shard's
database and ingest queue; a worker holds a read replica (what its fork
copied plus, in order, every write the parent made since) and returns
scheduler state.**

A worker is forked by the advancing thread at the first round that
needs it, its shards held still by
:meth:`~repro.service.shard.Shard.forking`, so nothing is pickled to
build a replica.  Per advance a shard sends a **delta** (what it wrote
since the last cut, naming the replica generation it extends), or
``b""`` with no trusted replica, and its worker is forked afresh; the
advanced scheduler comes back to be adopted, and outcomes merge **in
ascending shard-id order**, so reports are byte-identical to one
process's.  A worker handed a delta for another generation *refuses* it
and is re-forked at once, which turns the blobs already cut for its
shards into ``b""`` ("advance what the fork holds") and marks what it
returned earlier in the round ``stale``.  One request is in flight per
worker: one that crashed, raised or blew the deadline is killed and its
shard retried on a re-fork, then handed back (``fallback="in_process"``)
for the parent to advance in place.  DESIGN.md has why a mid-life fork
is safe and the failure table.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, ContextManager, Dict, List, Optional, Set, Tuple

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

#: Pinned, not the platform default: the fork *is* the replica.
_FORK = multiprocessing.get_context("fork")


class ReplicaRefused(Exception):
    """A delta met no replica of the generation it extends: "re-fork me"."""


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
        fallback: ``"in_process"`` when retries ran out: no state, the
            caller advances the shard itself.
        stale: Its worker was re-forked after it: that replica is gone.
    """

    shard_id: int
    state: Optional[DetectionScheduler]
    outcomes: List[ScanOutcome]
    elapsed: float
    retries: int = 0
    fallback: Optional[str] = None
    stale: bool = False


def _advance_shard(
    shard_id: int, blob: bytes, target: float, fault: Optional[Tuple[str, float]],
    replicas: Dict[int, tuple],
) -> ShardAdvanceResult:
    """Worker entry point: bring one shard level with ``blob``, advance it.

    ``replicas`` is the calling worker's ``shard id -> (generation,
    scheduler, database)``, generation 0 as forked, which an empty
    ``blob`` advances as it is.  ``fault`` is an injected directive —
    ``("crash", _)`` kills this process hard, ``("hang", s)`` sleeps
    ``s`` seconds first.  Raises :class:`ReplicaRefused` for a
    generation not held.
    """
    if fault is not None:
        kind, value = fault
        if kind == "crash":
            os._exit(13)
        elif kind == "hang":
            time.sleep(value)
    delta = pickle.loads(blob) if blob else None
    wanted = delta.generation if delta is not None else 0
    held = replicas.get(shard_id)
    if held is None or held[0] != wanted:
        raise ReplicaRefused(f"shard {shard_id}: generation {wanted}")
    generation, scheduler, database = held
    if delta is not None:
        delta.replay(database)
    scheduler.database = database
    started = time.perf_counter()
    outcomes = scheduler.advance_to(target)
    elapsed = time.perf_counter() - started
    # Only scheduler state goes back: the replica stays here.
    scheduler.database = None
    replicas[shard_id] = (generation + 1, scheduler, database)
    return ShardAdvanceResult(shard_id, scheduler, outcomes, elapsed)


def _serve(conn: Connection, inherited: List[Connection], forked: Dict[int, tuple]) -> None:
    """A resident worker's life: one request at a time, the replicas it
    was ``forked`` with (``shard id -> (scheduler, database)``) kept in
    between; it answers a result, a refusal or what the advance raised.
    ``inherited``: parent-side pipe ends; open, the parent's death is no EOF."""
    for end in inherited:
        end.close()
    replicas = {shard_id: (0, *state) for shard_id, state in forked.items()}
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
            answer = repr(error)
        conn.send(answer)


class ParallelShardExecutor:
    """Advances shards on ``workers`` resident processes, each forked at
    the first advance that needs it (the constructor starts none).

    Args:
        workers: Worker process count (must be >= 1).  With one worker
            the service skips this executor and runs in-thread.
        replicas: ``worker index ->`` a context manager yielding ``{shard id:
            (scheduler, database)}`` for the shards that worker hosts, held
            still (queue locks, flush, fresh logs) until its fork is done.
        deadline: Per-shard advance deadline in seconds.  A shard that blows it
            is failed and retried, its worker replaced.  ``None`` waits for ever.
        injector: Optional :class:`~repro.faults.FaultInjector`; the
            send path asks it for per-shard crash/hang directives.
        metrics: Optional registry-like object receiving the ``advance.*``
            counters (bytes out and in, retries, fallbacks, deadlines,
            respawns, re-forks).
    """

    def __init__(
        self, workers: int, replicas: Callable[[int], ContextManager[Dict[int, tuple]]],
        deadline: Optional[float] = ADVANCE_DEADLINE, injector: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.workers = workers
        self.replicas = replicas
        self.deadline = deadline
        self.injector = injector
        self.metrics = metrics
        self._procs: List[Optional[Tuple[Any, Connection]]] = [None] * workers
        self._forked: Set[int] = set()  # indices forked at least once

    def _fork(self, index: int, held: dict, blobs: dict, results: dict) -> None:
        """(Re-)fork worker ``index`` holding ``held``, what its open
        ``replicas`` context yields.  Its shards' logs restarted: their
        ``blobs`` become ``None`` ("as forked"), its results ``stale``."""
        if self._procs[index] is not None:
            self._retire(index)
        ours, theirs = _FORK.Pipe()
        inherited = [ours] + [conn for _, conn in filter(None, self._procs)]
        process = _FORK.Process(target=_serve, args=(theirs, inherited, held), daemon=True)
        process.start()
        theirs.close()
        self._procs[index] = (process, ours)
        if index in self._forked:
            self._inc("advance.reseeds")
        self._forked.add(index)
        blobs.update((shard_id, None) for shard_id in blobs if shard_id % self.workers == index)
        for shard_id, result in results.items():
            result.stale |= shard_id % self.workers == index

    def _retire(self, index: int) -> None:
        process, conn = self._procs[index]
        process.kill()
        process.join()
        conn.close()
        self._procs[index] = None

    def worker_pids(self) -> List[int]:
        """Process ids of the live workers, in worker-index order."""
        return [process.pid for process, _ in filter(None, self._procs)]

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def map_shards(self, blobs: Dict[int, bytes], target: float) -> List[ShardAdvanceResult]:
        """Advance every shard blob to ``target``; results sorted by id.

        The sort is the determinism contract: callers fold results in
        ascending shard-id order, as the serial path iterates shards.
        Shards whose worker crashed, raised or blew the deadline are
        retried on a re-fork with exponential backoff, for
        :data:`ADVANCE_RETRIES` rounds, then returned as
        ``fallback="in_process"`` for the caller to advance itself.
        """
        if not self._procs:
            raise RuntimeError("map_shards on a closed executor: it forks no workers")
        results: Dict[int, ShardAdvanceResult] = {}
        remaining: Dict[int, Optional[bytes]] = dict(sorted(blobs.items()))
        for attempt in range(ADVANCE_RETRIES + 1):
            if not remaining:
                break
            if attempt:
                time.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
                self._inc("advance.retries", len(remaining))
            failed = self._attempt(remaining, target, results, attempt)
            # Each was on a worker now retired or re-forked since.
            remaining = {shard_id: None for shard_id in sorted(failed)}
        for shard_id in remaining:
            _log.warning("shard advance falling back in-process", shard=shard_id)
            results[shard_id] = ShardAdvanceResult(
                shard_id, None, [], 0.0, ADVANCE_RETRIES, "in_process"
            )
            self._inc("advance.fallbacks")
        return [results[shard_id] for shard_id in sorted(results)]

    def _attempt(
        self, shards: Dict[int, Optional[bytes]], target: float,
        results: Dict[int, ShardAdvanceResult], attempt: int,
    ) -> List[int]:
        """Run round ``attempt``, each worker taking its shards one
        after another; returns the shard ids that failed."""
        queues = [deque(s for s in shards if s % self.workers == w) for w in range(self.workers)]
        due: Dict[int, float] = {}  # busy worker -> when the head of its queue is due
        failed: List[int] = []
        with ExitStack() as stack:  # held from their flush, before any directive, to their fork
            held = {
                index: stack.enter_context(self.replicas(index))
                for index, queue in enumerate(queues)
                if queue and (self._procs[index] is None or b"" in [shards[s] for s in queue])
            }
            # Decided up front, in shard order, whatever order workers finish in.
            directive = self.injector.worker_directive if self.injector else lambda _: None
            faults = {shard_id: directive(shard_id) for shard_id in shards}
            for index in held:  # each scans its first shard while the next one forks
                self._fork(index, held[index], shards, results)
                self._send(index, queues[index][0], shards, target, faults, due)
        while True:
            for index, queue in enumerate(queues):
                if queue and index not in due:
                    if self._procs[index] is None:  # retired in this round
                        with self.replicas(index) as state:
                            self._fork(index, state, shards, results)
                    self._send(index, queue[0], shards, target, faults, due)
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
                if isinstance(answer, ShardAdvanceResult):
                    answer.retries = attempt  # every round retries all that failed
                    results[queues[index].popleft()] = answer
                    continue
                self._retire(index)  # the next send to it re-forks it
                if isinstance(answer, ReplicaRefused) and shards[shard_id] is not None:
                    continue  # a delta: again at once, to the re-fork, outside the budget
                failed.append(queues[index].popleft())
                _log.warning("shard advance failed", shard=shard_id, error=str(answer))

    def _send(self, index: int, shard_id: int, blobs: dict, target: float, faults, due) -> None:
        blob = blobs[shard_id] or b""
        try:
            self._procs[index][1].send((shard_id, blob, target, faults.pop(shard_id, None)))
            self._inc("advance.bytes_out", len(blob))  # only what left
        except OSError:
            pass  # it died idle: the read below says so
        due[index] = time.monotonic() + (self.deadline or float("inf"))

    def _answer(self, index: int, in_time: bool) -> Any:
        """A result, a refusal, or the text of what went wrong."""
        if not in_time:
            self._inc("advance.deadline_exceeded")
            self._inc("advance.pool_recreations")
            return f"blew its {self.deadline} s deadline"
        try:
            data = self._procs[index][1].recv_bytes()
        except (EOFError, OSError):
            self._inc("advance.pool_recreations")
            return "worker crashed"
        self._inc("advance.bytes_in", len(data))
        return pickle.loads(data)

    def close(self) -> None:
        """Kill and join every worker: none holds anything of its own.
        A closed executor forks no more."""
        for index, proc in enumerate(self._procs):
            if proc is not None:
                self._retire(index)
        self._procs = []

    def __enter__(self) -> "ParallelShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
