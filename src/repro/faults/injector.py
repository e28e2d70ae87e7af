"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One injector lives in the *parent* service process and makes every
injection decision there, under a lock, from per-spec seeded RNG
streams — worker processes never decide anything, they only execute
directives the parent hands them (``("crash", 0.0)``/``("hang", s)``
tuples piped through :func:`repro.service.parallel._advance_shard`).
That keeps a chaos run deterministic regardless of process scheduling.

Decision model, per site invocation:

1. every spec whose site and shard filter match sees its private
   invocation counter advance;
2. a spec is *eligible* once its counter exceeds ``after`` and while its
   ``times`` budget is unspent;
3. an eligible spec fires when its seeded RNG stream passes
   ``probability`` — the first firing spec wins the invocation.

Every firing increments ``faults.injected`` (and a per-kind counter) on
the wired metrics registry and records an event on the wired
:class:`~repro.obs.spans.EventLog`, so injected chaos is always visible
on ``/metrics`` and ``/faults``.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Optional, Tuple

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs.logging import get_logger

__all__ = ["FaultInjector", "InjectedFault"]

_log = get_logger("repro.faults")


class InjectedFault(RuntimeError):
    """Raised at the raising hook point (a flush error).

    Catching code treats it like any other runtime failure — the class
    exists so tests and logs can tell injected chaos from real bugs.
    """


class _SpecState:
    """Mutable bookkeeping for one spec (the plan itself stays frozen)."""

    __slots__ = ("spec", "seen", "fired", "rng")

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        self.seen = 0
        self.fired = 0
        self.rng = random.Random(f"repro.faults:{seed}:{index}:{spec.kind.value}")

    def matches(self, site: str, shard: Optional[int]) -> bool:
        return self.spec.site == site and (
            self.spec.shard is None or shard is None or self.spec.shard == shard
        )

    def consider(self) -> bool:
        """Advance this spec's invocation counter; report whether it fires."""
        self.seen += 1
        if self.seen <= self.spec.after:
            return False
        if self.spec.times is not None and self.fired >= self.spec.times:
            return False
        if self.spec.probability < 1.0 and self.rng.random() >= self.spec.probability:
            return False
        self.fired += 1
        return True


class FaultInjector:
    """Executes a fault plan at the service's hook points.

    Args:
        plan: The schedule to execute.

    Firings are counted and logged where :meth:`wire` points — the
    service wires its own registry and event log; unwired, the injector
    only decides.

    Thread-safe: hook points are called from the advance thread and the
    producers' caller-runs flushes concurrently.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.metrics: Optional[object] = None
        self.events: Optional[object] = None
        self._lock = threading.Lock()
        self._states = [
            _SpecState(spec, plan.seed, index)
            for index, spec in enumerate(plan.specs)
        ]

    def wire(self, metrics: Optional[object] = None, events: Optional[object] = None) -> None:
        """Attach a registry-like object (``inc(name, n)``) for the
        ``faults.injected`` counters and an
        :class:`~repro.obs.spans.EventLog` for one event per firing."""
        if metrics is not None:
            self.metrics = metrics
        if events is not None:
            self.events = events

    # -- hook points -----------------------------------------------------

    def worker_directive(self, shard: Optional[int] = None) -> Optional[Tuple[str, float]]:
        """Site ``worker.advance``: a directive for one shard's worker.

        Returns ``("crash", 0.0)``, ``("hang", seconds)``, or ``None``.
        Decided in the parent so retries re-consult the plan — a spec
        with a spent budget stops firing and the retry succeeds.
        """
        spec = self._fire("worker.advance", shard)
        if spec is None:
            return None
        if spec.kind is FaultKind.WORKER_CRASH:
            return ("crash", 0.0)
        return ("hang", spec.hang_seconds)

    def maybe_raise(self, site: str, shard: Optional[int] = None) -> None:
        """Site ``ingest.flush``: raise if a spec fires.

        Raises:
            InjectedFault: When a matching spec fires.
        """
        spec = self._fire(site, shard)
        if spec is not None:
            raise InjectedFault(f"injected {spec.kind.value} at {site} (shard={shard})")

    # -- introspection ---------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Fired-fault counts per kind (only kinds that fired)."""
        with self._lock:
            totals: Dict[str, int] = {}
            for state in self._states:
                if state.fired:
                    key = state.spec.kind.value
                    totals[key] = totals.get(key, 0) + state.fired
            return totals

    def exhausted(self) -> bool:
        """Whether every finite-budget spec has spent its budget."""
        with self._lock:
            return all(
                state.spec.times is None or state.fired >= state.spec.times
                for state in self._states
            )

    def snapshot(self) -> dict:
        """JSON view of the plan and its execution state (``/faults``)."""
        with self._lock:
            return {
                "seed": self.plan.seed,
                "specs": [
                    {
                        **state.spec.to_dict(),
                        "seen": state.seen,
                        "fired": state.fired,
                    }
                    for state in self._states
                ],
                "injected_total": sum(state.fired for state in self._states),
            }

    # -- internals -------------------------------------------------------

    def _fire(self, site: str, shard: Optional[int]) -> Optional[FaultSpec]:
        with self._lock:
            winner: Optional[FaultSpec] = None
            for state in self._states:
                if not state.matches(site, shard):
                    continue
                if winner is None and state.consider():
                    winner = state.spec
                elif winner is None:
                    continue
                # Later matching specs do not see this invocation once a
                # winner fired: one invocation, at most one fault.
        if winner is not None:
            self._record(winner, shard)
        return winner

    def _record(self, spec: FaultSpec, shard: Optional[int]) -> None:
        if self.metrics is not None:
            self.metrics.inc("faults.injected")
            self.metrics.inc(f"faults.injected.{spec.kind.value}")
        if self.events is not None:
            self.events.record(
                "fault_injected", fault=spec.kind.value, site=spec.site, shard=shard
            )
        _log.info("fault injected", kind=spec.kind.value, site=spec.site, shard=shard)
