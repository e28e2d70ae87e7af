"""Deterministic fault injection for the streaming service.

FBDetect's value is *continuous* in-production monitoring: the paper's
deployment keeps detecting through host failures, rolling updates, and
canary churn (§7).  A reproduction that only exercises the happy path
cannot claim that property, so this package makes the failure paths
first-class: a seedable :class:`FaultPlan` describes *which* faults fire
*when* (worker-process crashes, shard-advance hangs, TSDB flush errors),
and a :class:`FaultInjector` is threaded through the service's hook
points (:class:`~repro.service.parallel.ParallelShardExecutor` and
:class:`~repro.service.ingest.ShardIngestWorker`) to execute it.

The injector holds only failures that must land at a point *inside* a
running flush or advance.  Damage a caller can do from outside is done
from outside: dirty data is a transformed stream
(:mod:`repro.fleet.dirty`, ``serve-demo --dirty-data``), a damaged
checkpoint is bytes flipped on disk, and a stepped wall clock is a
stepped ``time.time``.

Determinism is the design constraint: every injection decision is drawn
from a per-(spec) seeded RNG stream, so the same plan against the same
stream injects the same faults — which is what lets ``tests/chaos``
assert that a fault-ridden run produces *byte-identical* incident
reports to a fault-free one.

The injector never hides what it did: every fired fault increments the
``faults.injected`` counters on the wired metrics registry and appends
an event to the wired :class:`~repro.obs.spans.EventLog`, both of which
surface on the service's ``/faults`` endpoint.
"""

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector, InjectedFault

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
]
