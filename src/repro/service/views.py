"""The read side of the service: one ``path -> view`` table.

Everything an operator pulls from a running
:class:`~repro.service.service.StreamingDetectionService` is a function
here, ``view(service) -> (status, payload)``, and :data:`VIEWS` is the
table :class:`~repro.obs.http.ObservabilityServer` routes — a new
endpoint is a new row.  ``cli.py`` and the tests call the same
functions, so what HTTP serves and what a test asserts cannot differ.

Views fold over shards and write nothing.  A shard answers for itself
(``Shard.stats`` / ``health`` / ``quality``): no view
reaches through to a shard's worker or scheduler, so none assumes they
live in this process, and none takes a queue lock (see
:mod:`repro.service.shard` for what makes that safe).  A count an owner
keeps is folded here (:func:`_snapshot`) and recorded nowhere else.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro.obs.spans import FunnelTrace
from repro.service.metrics import render
from repro.service.shard import ShardStats

__all__ = ["VIEWS", "ServiceStats", "funnel_trace", "stats"]

#: What a view returns: HTTP status and the payload — a dict served as
#: JSON, or (``/metrics`` only) the text exposition.
View = Tuple[int, Union[dict, str]]


@dataclass(frozen=True)
class ServiceStats:
    """Whole-service health snapshot (returned by ``service.stats()``).

    Attributes:
        clock: Last advanced detection time.
        n_shards: Shard count.
        offered/accepted/flushed/dropped/rejected: Ingest totals across
            shards.
        scans: Detection scans executed.
        reported: Incident reports delivered to sinks.
        suppressed_realerts: Reports suppressed by the reported-ledger
            (non-zero only when replayed data re-surfaces a regression
            the service already alerted on, e.g. after a restore).
        shards: Per-shard breakdowns.
        metrics: Full self-metrics snapshot (counters, gauges, latency
            histograms) — what ``/metrics`` renders.
    """

    clock: float
    n_shards: int
    offered: int
    accepted: int
    flushed: int
    dropped: int
    rejected: int
    scans: int
    reported: int
    suppressed_realerts: int
    shards: List[ShardStats]
    metrics: dict

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"ServiceStats @ t={self.clock:g}",
            f"  shards={self.n_shards} scans={self.scans} "
            f"reported={self.reported} suppressed_realerts={self.suppressed_realerts}",
            f"  ingest: offered={self.offered} accepted={self.accepted} "
            f"flushed={self.flushed} dropped={self.dropped} rejected={self.rejected}",
        ]
        for shard in self.shards:
            counters = shard.counters
            lines.append(
                f"  shard {shard.shard_id}: series={shard.series} "
                f"pending={shard.pending} accepted={counters['accepted']} "
                f"flushed={counters['flushed']} dropped={counters['dropped_oldest']} "
                f"rejected={counters['rejected']} scans={shard.scans}"
            )
        scan = self.metrics["histograms"].get("scheduler.scan_seconds")
        if scan and scan["count"]:
            lines.append(
                f"  scan latency: n={scan['count']} "
                f"mean={scan['sum'] / scan['count'] * 1e3:.2f}ms"
            )
        return "\n".join(lines)


#: Ingest total -> the worker counter it sums over shards.
_INGEST = dict(
    offered="offered", accepted="accepted", flushed="flushed",
    dropped="dropped_oldest", rejected="rejected",
)


#: ``ShardStats.counters`` key -> the counter that sums it over shards.
_SHARD_COUNTERS = {key: f"ingest.{key}" for key in (
    "accepted", "flushed", "rejected", "dropped_oldest", "blocking_flushes", "flush_failures")}
_SHARD_COUNTERS.update({f"quality_{key}": f"quality.{key}" for key in (
    "quarantined", "repaired", "counter_resets", "duplicates", "reordered")})


def _fold(service) -> Tuple[List[ShardStats], Dict[str, int], int]:
    """Every shard's stats row, the ingest totals over them, the scans."""
    shards = [shard.stats() for shard in service._shards.values()]
    ingest = {
        total: sum(shard.counters[counter] for shard in shards)
        for total, counter in _INGEST.items()
    }
    return shards, ingest, sum(shard.scans for shard in shards)


def _snapshot(service, shards: List[ShardStats]) -> dict:
    """What ``/metrics`` serves: the registry's snapshot beside the counts
    whose one home is an owner, each kind sorted by name.  Owned counts
    read as the registry served them when it mirrored them — a counter
    once non-zero, every gauge, a histogram once observed."""
    counters: Dict[str, int] = Counter()
    for shard in shards:
        for key, name in _SHARD_COUNTERS.items():
            counters[name] += shard.counters.get(key, 0)
        for reason, count in shard.quarantined_by_reason.items():
            counters[f"quality.quarantined.{reason}"] += count
        counters["scheduler.scans"] += shard.scans
        for key, count in shard.incremental.items():
            counters[f"pipeline.incremental.{key}"] += count
    counters["service.reports.delivered"] = service._reported
    counters["service.reports.suppressed"] = service._suppressed_realerts
    gauges = {"service.shards": service.n_shards, "service.workers": service.workers}
    gauges.update({f"service.shard{shard.shard_id}.series": shard.series for shard in shards})
    histograms = {}
    flushed = [shard.flush_seconds for shard in shards if shard.flush_seconds["count"]]
    if flushed:  # one histogram over the shards' (same buckets, counts summed)
        histograms["ingest.flush_seconds"] = dict(
            flushed[0],
            counts=[sum(column) for column in zip(*(s["counts"] for s in flushed))],
            count=sum(s["count"] for s in flushed), sum=sum(s["sum"] for s in flushed),
            min=min(s["min"] for s in flushed), max=max(s["max"] for s in flushed),
        )
    owned = {
        "counters": {name: float(value) for name, value in counters.items() if value},
        "gauges": {name: float(value) for name, value in gauges.items()},
        "histograms": histograms,
    }
    registry, merged = service.metrics.snapshot(), {}
    for kind, values in owned.items():
        recorded = registry.get(kind, {})  # the registry keeps no gauges
        assert not recorded.keys() & values.keys(), "an owned count was recorded"
        merged[kind] = dict(sorted({**recorded, **values}.items()))
    return merged


def stats(service) -> ServiceStats:
    """The fold behind ``service.stats()``."""
    shards, ingest, scans = _fold(service)
    return ServiceStats(
        clock=service.clock,
        n_shards=service.n_shards,
        scans=scans,
        reported=service._reported,
        suppressed_realerts=service._suppressed_realerts,
        shards=shards,
        metrics=_snapshot(service, shards),
        **ingest,
    )


def funnel_trace(service) -> FunnelTrace:
    """The live Table 3 view over the retained funnel run traces."""
    return FunnelTrace.from_store(service.traces)


def metrics(service) -> View:
    """``/metrics``: text exposition of :attr:`ServiceStats.metrics`."""
    return 200, render(_snapshot(service, _fold(service)[0]))


def healthz(service) -> View:
    """``/healthz``: liveness/readiness.

    A shard is *saturated* when its queue has reached the backpressure
    threshold (pending >= capacity), *degraded* after its worker failed
    and the service advanced it in place — the per-shard ``degraded``
    entry names the reason (``in_process_fallback``; ``null`` when
    healthy), and it clears on the next clean advance.
    Either condition degrades the whole service: the view answers 503 so
    probes and load balancers shed traffic before samples are lost.

    ``checkpoint.age_seconds`` is measured on the *monotonic* clock
    since the last checkpoint or restore in this process (``None`` before
    the first) — how much progress a crash right now would replay.  An
    NTP step moves ``last_at`` (display, wall clock), never the age.
    """
    degraded = service.degraded_reasons()
    shards = [
        {**shard.health(), "degraded": degraded.get(shard.shard_id)}
        for shard in service._shards.values()
    ]
    saturated = sum(row["saturated"] for row in shards)
    checkpointed = service._last_checkpoint_mono
    healthy = not saturated and not degraded
    return (200 if healthy else 503), {
        "status": "ok" if healthy else "degraded",
        "clock": service.clock,
        "shards": shards,
        "saturated_shards": saturated,
        "degraded_shards": len(degraded),
        "workers": service.workers,
        "checkpoint": {
            "last_at": service._last_checkpoint_at,
            "age_seconds": (
                time.monotonic() - checkpointed if checkpointed is not None else None
            ),
        },
    }


def status(service) -> View:
    """``/status``: the operator's funnel snapshot.

    ``funnel`` is the cumulative
    :class:`~repro.core.pipeline.FunnelCounters` view (every scan since
    the service — or its checkpoint lineage — started); ``funnel_trace``
    is the windowed live view over the trace ring buffer, with per-stage
    drop reasons and timings.  All values are JSON-serializable.
    """
    _, ingest, scans = _fold(service)
    return 200, {
        "clock": service.clock,
        "n_shards": service.n_shards,
        "workers": service.workers,
        "monitors": service.monitors(),
        "scans": scans,
        "reported": service._reported,
        "suppressed_realerts": service._suppressed_realerts,
        "ingest": ingest,
        "funnel": dict(service.funnel.counts),
        # JSON has no infinity: an empty stage reads ``null``.
        "funnel_reduction": {
            stage: None if math.isinf(ratio) else ratio
            for stage, ratio in service.funnel.reduction_ratios().items()
        },
        "funnel_trace": funnel_trace(service).to_dict(),
        "traces": {
            "retained": len(service.traces),
            "recorded": service.traces.recorded,
            "capacity": service.traces.capacity,
        },
    }


def faults(service) -> View:
    """``/faults``: the recent operational events — degradations,
    recoveries, checkpoint fallbacks, sink errors — the trail an operator
    follows during an incident or a drill done from outside."""
    return 200, {"events": [event.to_dict() for event in service.events.events()]}


def quality(service) -> View:
    """``/quality``: data quality across shards.

    Aggregate admission counters, per-shard quarantine snapshots (worst
    offenders with reason codes and quality scores), and the series
    currently evicted from scanning for staleness.  See docs/RUNBOOK.md
    for the triage workflow.
    """
    shards = []
    totals: Dict[str, int] = {}
    stale: set = set()
    for shard in service._shards.values():
        snapshot, evicted = shard.quality()
        stale.update(evicted)
        shards.append(snapshot)
        for key, value in snapshot["counters"].items():
            totals[key] = totals.get(key, 0) + value
    return 200, {
        "counters": totals,
        # Current attribution (drops when a series is released),
        # unlike counters["quarantined"] which is cumulative.
        "quarantined_points": sum(snap["quarantine"]["total"] for snap in shards),
        "stale_series": sorted(stale),
        "shards": shards,
    }


#: The endpoints: path -> view.  ``GET /`` lists these keys.
VIEWS: Dict[str, Callable[[object], View]] = {
    "/metrics": metrics,
    "/healthz": healthz,
    "/status": status,
    "/faults": faults,
    "/quality": quality,
}
