"""Multi-process shard execution: resident workers holding read replicas.

The paper scans slices of the series space on a fleet of workers that
*read* the time-series database (§5.1).  This module keeps ``workers``
long-lived processes — shard ``i`` always on worker ``i % workers`` —
under one ownership rule: **the parent is the only writer of a shard's
database and ingest queue; a worker holds a read replica (what its fork
copied plus, in order, every write the parent made since) and returns
scheduler state.**

A worker is forked by the advancing thread at the start of the first
round that needs it, its shards held still by
:meth:`~repro.service.shard.Shard.forking`, so nothing is pickled to
build a replica; round start is the only place a fork happens.  Per
advance a shard sends a **delta** (what it wrote since the last cut,
naming the replica generation it extends), or ``b""`` with no trusted
replica, and its worker is forked afresh; the advanced scheduler comes
back to be adopted, and outcomes merge **in ascending shard-id order**,
so reports are byte-identical to one process's.  A worker is sent all
its shards for the round in one message and answers each as it is done.
There is one recovery: a worker that crashed, raised, refused a delta
for a generation it does not hold, or blew the deadline of the shard at
the head of its queue is killed, and every shard it had not answered
comes back with no state, for the parent — which holds the live shard —
to advance in place as ``workers=1`` does.  The worker is forked afresh
at its next round.  DESIGN.md has why a mid-life fork is safe and the
failure table.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, ContextManager, Dict, List, Optional, Set, Tuple

from repro.obs.logging import get_logger
from repro.runtime.scheduler import DetectionScheduler, ScanOutcome

__all__ = ["ADVANCE_DEADLINE", "ShardAdvanceResult", "ParallelShardExecutor"]

_log = get_logger("repro.service.parallel")

#: Seconds one shard's advance may take, from the send or the answer before
#: it, before it counts as failed and its worker is killed.  Far above a real
#: advance (under 2 s on every benchmark workload); finite so a wedged worker
#: cannot park ``advance_to`` for ever.  Read as it is used: a test patches it.
ADVANCE_DEADLINE = 60.0

#: Pinned, not the platform default: the fork *is* the replica.
_FORK = multiprocessing.get_context("fork")


class ReplicaRefused(Exception):
    """A delta met no replica of the generation it extends."""


@dataclass
class ShardAdvanceResult:
    """What one worker process ships back for one shard.

    Attributes:
        shard_id: The shard that was advanced.
        state: The advanced scheduler, detached from the replica; ``None``
            when its worker failed first: the caller advances the shard
            itself.
        outcomes: Scan outcomes, in the scheduler's deterministic
            order, each carrying its ledger for the parent to publish;
            ``all_candidates`` empty (the parent never reads it).
        elapsed: Wall-clock seconds the worker spent on this shard.
    """

    shard_id: int
    state: Optional[DetectionScheduler]
    outcomes: List[ScanOutcome]
    elapsed: float


def _advance_shard(
    shard_id: int, blob: bytes, target: float, replicas: Dict[int, tuple],
) -> ShardAdvanceResult:
    """Worker entry point: bring one shard level with ``blob``, advance it.

    ``replicas`` is the calling worker's ``shard id -> (generation,
    scheduler, database)``, generation 0 as forked, which an empty
    ``blob`` advances as it is.  Raises :class:`ReplicaRefused` for a
    generation not held.
    """
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
    outcomes = [  # every candidate's window stays here
        replace(outcome, result=outcome.result and replace(outcome.result, all_candidates=[]))
        for outcome in scheduler.advance_to(target)
    ]
    elapsed = time.perf_counter() - started
    # Only scheduler state goes back: the replica stays here.
    scheduler.database = None
    replicas[shard_id] = (generation + 1, scheduler, database)
    return ShardAdvanceResult(shard_id, scheduler, outcomes, elapsed)


def _serve(conn: Connection, inherited: List[Connection], forked: Dict[int, tuple]) -> None:
    """A resident worker's life: a round's requests at a time, the replicas
    it was ``forked`` with (``shard id -> (scheduler, database)``) kept in
    between; it answers each with a result or the text of what the advance
    raised, and stops at the first that is not a result.
    ``inherited``: parent-side pipe ends; open, the parent's death is no EOF."""
    for end in inherited:
        end.close()
    replicas = {shard_id: (0, *state) for shard_id, state in forked.items()}
    while True:
        try:
            requests = conn.recv()
        except EOFError:  # the parent is gone
            return
        for request in requests:
            try:
                # Through the module global: a tracer, or a drill that crashes
                # or stalls a worker, wraps it before the fork.
                answer: Any = _advance_shard(*request, replicas)
            except Exception as error:  # a refusal too
                answer = repr(error)
            conn.send(answer)
            if not isinstance(answer, ShardAdvanceResult):
                return  # the parent advances the rest and kills this one


class ParallelShardExecutor:
    """Advances shards on ``workers`` resident processes, each forked at
    the start of the first advance that needs it (the constructor starts
    none).

    Args:
        workers: Worker process count (must be >= 1).  With one worker
            the service skips this executor and runs in-thread.
        replicas: ``worker index ->`` a context manager yielding ``{shard id:
            (scheduler, database)}`` for the shards that worker hosts, held
            still (queue locks, flush, fresh logs) until its fork is done.
        metrics: Optional registry-like object receiving the ``advance.*``
            counters (bytes out and in, fallbacks, deadlines, deaths,
            re-forks).

    A shard that takes longer than :data:`ADVANCE_DEADLINE` fails its
    worker, like a crash.
    """

    def __init__(
        self, workers: int, replicas: Callable[[int], ContextManager[Dict[int, tuple]]],
        metrics: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.replicas = replicas
        self.metrics = metrics
        self._procs: List[Optional[Tuple[Any, Connection]]] = [None] * workers
        self._forked: Set[int] = set()  # indices forked at least once

    def _fork(self, index: int, held: dict, blobs: dict) -> None:
        """(Re-)fork worker ``index`` holding ``held``, what its open
        ``replicas`` context yields.  Its shards' logs restarted: their
        ``blobs`` become ``None`` ("as forked")."""
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
        Each worker is sent its shards at once and takes them one after
        another.  One that fails is killed, and each shard it had not
        answered comes back with ``state=None`` for the caller to advance
        itself.
        """
        if not self._procs:
            raise RuntimeError("map_shards on a closed executor: it forks no workers")
        shards: Dict[int, Optional[bytes]] = dict(sorted(blobs.items()))
        queues = [deque(s for s in shards if s % self.workers == w) for w in range(self.workers)]
        results: Dict[int, ShardAdvanceResult] = {}
        due: Dict[int, float] = {}  # busy worker -> when the head of its queue is due
        with ExitStack() as stack:  # held from their flush to their fork
            held = {
                index: stack.enter_context(self.replicas(index))
                for index, queue in enumerate(queues)
                if queue and (self._procs[index] is None or b"" in [shards[s] for s in queue])
            }
            for index in held:  # each scans its shards while the next one forks
                self._fork(index, held[index], shards)
                self._send(index, queues[index], shards, target, due)
        for index, queue in enumerate(queues):
            if queue and index not in due:
                self._send(index, queue, shards, target, due)
        while due:
            wake = max(min(due.values()) - time.monotonic(), 0.0)
            ready = wait([self._procs[index][1] for index in due], wake)
            now = time.monotonic()
            for index in [i for i in due if self._procs[i][1] in ready or due[i] <= now]:
                del due[index]
                queue = queues[index]
                answer = self._answer(index, self._procs[index][1] in ready)
                if isinstance(answer, ShardAdvanceResult):
                    results[queue.popleft()] = answer
                    if queue:  # the next is due counting from this answer
                        due[index] = time.monotonic() + ADVANCE_DEADLINE
                    continue
                self._retire(index)  # forked afresh at its next round
                _log.warning("shard advance failed", shard=queue[0], error=str(answer))
                self._inc("advance.fallbacks", len(queue))
                results.update((s, ShardAdvanceResult(s, None, [], 0.0)) for s in queue)
        return [results[shard_id] for shard_id in sorted(results)]

    def _send(self, index: int, queue: deque, blobs: dict, target: float, due) -> None:
        """Send worker ``index`` every shard in its ``queue``, in one message."""
        requests = [(shard_id, blobs[shard_id] or b"", target) for shard_id in queue]
        try:
            self._procs[index][1].send(requests)
            self._inc("advance.bytes_out", sum(len(blob) for _, blob, _ in requests))
        except OSError:
            pass  # it died idle: the read below says so
        due[index] = time.monotonic() + ADVANCE_DEADLINE

    def _answer(self, index: int, in_time: bool) -> Any:
        """A result, or the text of what went wrong."""
        if not in_time:
            self._inc("advance.deadline_exceeded")
            self._inc("advance.pool_recreations")
            return f"blew its {ADVANCE_DEADLINE} s deadline"
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
