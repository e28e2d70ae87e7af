"""Funnel-stage spans, the trace ring buffer, and the live funnel view.

One pipeline run (one ``advance`` of a monitor) records exactly one
:class:`Span` per Figure 6 funnel stage.  A span carries what Table 3
needs to stay auditable in production: how many candidates *entered*
the stage, how many *survived*, why the rest were dropped, and how long
the stage spent — so the stage-attrition view the paper prints once can
be reproduced live from the last N runs.

Counts telescope by construction on the short-term path: stage N's
``outputs`` equals stage N+1's ``inputs``.  Planned-change suppression
(not a Table 3 stage) is tallied as a drop inside the
``same_regression`` span, so it does not break the identity.  The
long-term path does: it joins the funnel at the threshold stage (no
went-away/seasonality stages, §5.3), so with ``long_term`` enabled the
spans record the *actual* stage inputs rather than forcing the
identity — honesty over symmetry.

This module imports only the standard library, so the core pipeline can
depend on it without entangling core with the service layer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "STAGES",
    "Span",
    "StageTally",
    "FunnelCounters",
    "RunCounts",
    "RunTrace",
    "TraceStore",
    "FunnelTrace",
    "Event",
    "EventLog",
]

#: Canonical Figure 6 funnel stage order, matching Table 3's rows.  The
#: core pipeline re-exports this tuple; it lives here so observability
#: consumers never import detection code just to name stages.
STAGES: Tuple[str, ...] = (
    "change_points",
    "went_away",
    "seasonality",
    "threshold",
    "same_regression",
    "som_dedup",
    "cost_shift",
    "pairwise_dedup",
)


@dataclass
class StageTally:
    """Mutable per-run accumulator behind one stage's span.

    The pipeline calls :meth:`observe` once per candidate entering the
    stage; block-level stages (the dedup passes) call :meth:`bulk`
    once with their collection sizes.
    """

    inputs: int = 0
    outputs: int = 0
    seconds: float = 0.0
    drops: Dict[str, int] = field(default_factory=dict)
    first_entered: Optional[float] = None

    def observe(
        self,
        passed: bool,
        reason: Optional[str] = None,
        seconds: float = 0.0,
        wall: Optional[float] = None,
    ) -> None:
        """Record one candidate passing through the stage."""
        if self.first_entered is None:
            self.first_entered = wall if wall is not None else time.time()
        self.inputs += 1
        self.seconds += seconds
        if passed:
            self.outputs += 1
        else:
            key = reason or "dropped"
            self.drops[key] = self.drops.get(key, 0) + 1

    def bulk(
        self,
        inputs: int,
        outputs: int,
        reason: str,
        seconds: float,
        wall: Optional[float] = None,
    ) -> None:
        """Record a whole-collection stage (dedup passes) in one call."""
        if self.first_entered is None:
            self.first_entered = wall if wall is not None else time.time()
        self.inputs += inputs
        self.outputs += outputs
        dropped = inputs - outputs
        if dropped > 0:
            self.drops[reason] = self.drops.get(reason, 0) + dropped
        self.seconds += seconds

    def freeze(self, stage: str) -> "Span":
        return Span(
            stage=stage,
            inputs=self.inputs,
            outputs=self.outputs,
            seconds=self.seconds,
            drops=dict(self.drops),
            started=self.first_entered,
        )


@dataclass(frozen=True)
class Span:
    """One funnel stage's footprint in one pipeline run.

    Attributes:
        stage: Stage name (one of :data:`STAGES`).
        inputs: Candidates (or series, for ``change_points``) entering.
        outputs: Candidates surviving the stage.
        seconds: Time spent in the stage across all candidates.
        drops: Drop reason -> count; sums to ``inputs - outputs``.
        started: Wall-clock time the stage first ran this scan (``None``
            when no candidate ever reached the stage).
    """

    stage: str
    inputs: int
    outputs: int
    seconds: float
    drops: Dict[str, int] = field(default_factory=dict)
    started: Optional[float] = None

    @property
    def dropped(self) -> int:
        return self.inputs - self.outputs


@dataclass
class FunnelCounters:
    """Survivor counts after each pipeline stage (Table 3).

    ``counts[stage]`` is the number of candidates still alive *after*
    the stage ran.  ``counts["change_points"]`` is the number detected.
    """

    counts: Dict[str, int] = field(default_factory=lambda: {s: 0 for s in STAGES})

    def reduction_ratios(self) -> Dict[str, float]:
        """Table 3's "1/N" view: detected count over survivors per stage.

        Stages with zero survivors report ``inf``.  The one
        implementation: the ``/status`` payload and the Table 3 text
        rows both render from it.
        """
        detected = self.counts["change_points"]
        return {
            stage: detected / alive if alive else float("inf")
            for stage, alive in self.counts.items()
        }

    def merge(self, other: "FunnelCounters") -> None:
        for stage, count in other.counts.items():
            self.counts[stage] = self.counts.get(stage, 0) + count


class RunCounts(Dict[str, int]):
    """A run's own counters, ``name -> count``, with a registry's
    ``inc`` — so code that counts into one counts into either."""

    def inc(self, name: str, amount: int = 1) -> None:
        self[name] = self.get(name, 0) + amount


@dataclass(frozen=True)
class RunTrace:
    """The ledger of one pipeline run (one monitor scan at one time),
    handed back on its result for the caller to publish
    (:func:`repro.runtime.scheduler.publish`).

    Attributes:
        monitor: The detection config name that ran.
        now: The scan's reference (detection) time.
        wall_started: Wall-clock start of the run.
        seconds: Wall-clock run duration.
        spans: One span per funnel stage, in :data:`STAGES` order.
        counts: Run-level counters under their metric names
            (``pipeline.runs``, ``detector.<id>.scans`` ...).
        timings: Block seconds under their histogram names
            (``pipeline.run_seconds``, ``pipeline.stage.*_seconds``).
    """

    monitor: str
    now: float
    wall_started: float
    seconds: float
    spans: Tuple[Span, ...]
    counts: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    def span(self, stage: str) -> Span:
        """The span for ``stage``.

        Raises:
            KeyError: On an unknown stage name.
        """
        for span in self.spans:
            if span.stage == stage:
                return span
        raise KeyError(f"no span for stage {stage!r}")

    def telescopes(self) -> bool:
        """Whether every stage's inputs equal the previous stage's outputs.

        True for short-term-only configurations; the long-term path
        intentionally breaks the identity (see the module docstring).
        """
        return all(
            later.inputs == earlier.outputs
            for earlier, later in zip(self.spans, self.spans[1:])
        )


class _Ring:
    """Thread-safe buffer of the ``capacity`` most recent items: an
    always-on service pays O(capacity) memory however long it lives.
    Process-local — nothing that is pickled holds one."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    def _append(self, item: object) -> None:
        with self._lock:
            self._items.append(item)
            self._recorded += 1

    def _retained(self) -> list:
        with self._lock:
            return list(self._items)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    @property
    def recorded(self) -> int:
        """Total items ever recorded (including evicted ones)."""
        return self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class TraceStore(_Ring):
    """Ring buffer of the most recent :class:`RunTrace`\\ s.

    :func:`repro.runtime.scheduler.publish` records one run per scan
    outcome, in outcome order, whichever process ran the scan; a
    restored service starts with an empty trace window.
    """

    def record(self, run: RunTrace) -> None:
        """Append one run trace (evicting the oldest when full)."""
        self._append(run)

    def runs(self) -> List[RunTrace]:
        """A snapshot of the retained runs, oldest first."""
        return self._retained()


@dataclass(frozen=True)
class Event:
    """One operational event (shard degraded, recovered, checkpoint fallback).

    Attributes:
        kind: Event type (``degraded``, ``recovered``,
            ``checkpoint_fallback`` ...).
        wall: Wall-clock time the event was recorded.
        fields: Event-specific payload (shard id, reason, generation).
    """

    kind: str
    wall: float
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "wall": self.wall, **self.fields}


class EventLog(_Ring):
    """Ring buffer of :class:`Event`\\ s.

    The failure-path counterpart of :class:`TraceStore`: where run
    traces answer "what is the funnel doing", the event log answers
    "what broke, and did it recover" — per-shard degradation
    transitions, checkpoint-generation fallbacks.  Exposed
    through the service's ``/faults`` endpoint.
    """

    def record(self, kind: str, wall: Optional[float] = None, **fields: object) -> Event:
        """Append one event (evicting the oldest when full)."""
        event = Event(
            kind=kind, wall=wall if wall is not None else time.time(), fields=fields
        )
        self._append(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events oldest-first, optionally filtered by kind."""
        retained = self._retained()
        if kind is None:
            return retained
        return [event for event in retained if event.kind == kind]


class FunnelTrace:
    """Live Table 3: stage attrition aggregated over retained run traces.

    Where :class:`FunnelCounters` keeps cumulative
    survivor counts since the service started, a ``FunnelTrace`` is the
    *windowed* view over whatever the ring buffer still holds — inputs,
    outputs, drop reasons, and time per stage — which is what an on-call
    engineer actually triages ("what is the funnel doing right now?").
    """

    def __init__(self, runs: Sequence[RunTrace]) -> None:
        self.runs = list(runs)
        self.totals: Dict[str, StageTally] = {s: StageTally() for s in STAGES}
        for run in self.runs:
            for span in run.spans:
                tally = self.totals.setdefault(span.stage, StageTally())
                tally.inputs += span.inputs
                tally.outputs += span.outputs
                tally.seconds += span.seconds
                for reason, count in span.drops.items():
                    tally.drops[reason] = tally.drops.get(reason, 0) + count

    @classmethod
    def from_store(cls, store: TraceStore) -> "FunnelTrace":
        return cls(store.runs())

    def telescopes(self) -> bool:
        """Whether aggregate stage inputs chain onto the previous outputs."""
        ordered = [self.totals[s] for s in STAGES]
        return all(
            later.inputs == earlier.outputs
            for earlier, later in zip(ordered, ordered[1:])
        )

    def rows(self) -> List[dict]:
        """Per-stage aggregate rows in funnel order (JSON-friendly)."""
        detected = self.totals[STAGES[0]].outputs
        rows = []
        for stage in STAGES:
            tally = self.totals[stage]
            alive = tally.outputs
            rows.append(
                {
                    "stage": stage,
                    "inputs": tally.inputs,
                    "outputs": alive,
                    "dropped": tally.inputs - alive,
                    "drops": dict(tally.drops),
                    "seconds": tally.seconds,
                    "reduction": (detected / alive) if alive else None,
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "runs": len(self.runs),
            "telescopes": self.telescopes(),
            "stages": self.rows(),
        }

    def render(self) -> str:
        """Human-readable stage-attrition table (Table 3, live)."""
        lines = [
            f"FunnelTrace over {len(self.runs)} run(s)",
            f"{'stage':<16} {'in':>7} {'out':>7} {'dropped':>8} "
            f"{'1/N':>8} {'seconds':>9}  top drop reason",
        ]
        detected = self.totals[STAGES[0]].outputs
        for stage in STAGES:
            tally = self.totals[stage]
            alive = tally.outputs
            ratio = f"1/{detected / alive:.0f}" if alive and detected else "--"
            top = max(tally.drops.items(), key=lambda kv: kv[1])[0] if tally.drops else ""
            lines.append(
                f"{stage:<16} {tally.inputs:>7} {alive:>7} "
                f"{tally.inputs - alive:>8} {ratio:>8} {tally.seconds:>9.4f}  {top}"
            )
        return "\n".join(lines)
