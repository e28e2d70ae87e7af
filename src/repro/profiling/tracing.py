"""End-to-end request tracing for endpoint-level regressions (§3).

FrontFaaS endpoint requests "may involve asynchronous and concurrent
processing across multiple threads", so FBDetect uses end-to-end tracing
(Canopy-style) to aggregate the costs of all subroutines involved in one
request; regressions in this aggregated cost are *endpoint-level
regressions*.

This module provides the tracing substrate: spans with parent/child
links and CPU cost, traces assembled across execution contexts, and an
aggregator that turns per-request traces into endpoint cost time series
the detection pipeline can scan.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["Span", "RequestTrace", "Tracer", "EndpointCostAggregator"]

#: The clock a span's start and duration are read from.
CLOCK = time.monotonic


@dataclass
class Span:
    """One unit of work within a request.

    Attributes:
        span_id: Unique within the trace.
        name: Subroutine or operation name.
        parent_id: Enclosing span, or ``None`` for the root.
        thread_name: Execution context that ran the work (asynchronous
            processing spreads a request across several).
        cpu_cost: CPU seconds consumed by this span's own work
            (excluding children).
        start: Wall-clock start time.
        duration: Wall-clock duration.
    """

    span_id: int
    name: str
    parent_id: Optional[int]
    thread_name: str
    cpu_cost: float = 0.0
    start: float = 0.0
    duration: float = 0.0


@dataclass
class RequestTrace:
    """A completed end-to-end trace for one endpoint request.

    Attributes:
        trace_id: Request id.
        endpoint: The user-facing URL this request served.
        spans: All spans, across every thread involved.
        start: Request start time.
    """

    trace_id: int
    endpoint: str
    spans: List[Span] = field(default_factory=list)
    start: float = 0.0

    @property
    def total_cpu_cost(self) -> float:
        """Aggregated CPU cost across all threads (the endpoint cost)."""
        return sum(span.cpu_cost for span in self.spans)

    @property
    def end_to_end_latency(self) -> float:
        """Wall-clock span of the whole request."""
        if not self.spans:
            return 0.0
        first = min(span.start for span in self.spans)
        last = max(span.start + span.duration for span in self.spans)
        return last - first

    @property
    def thread_count(self) -> int:
        return len({span.thread_name for span in self.spans})

    def subtree_cost(self, span_id: int) -> float:
        """CPU cost of a span including its transitive children."""
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        total = 0.0
        stack = [span for span in self.spans if span.span_id == span_id]
        if not stack:
            raise KeyError(f"unknown span {span_id}")
        while stack:
            span = stack.pop()
            total += span.cpu_cost
            stack.extend(by_parent.get(span.span_id, []))
        return total


class Tracer:
    """Builds request traces across threads.

    The active span is tracked per-thread; spans started on a new thread
    for the same trace attach to the parent recorded when the work was
    handed off (pass ``parent`` explicitly for cross-thread hand-offs).

    Example::

        tracer = Tracer()
        with tracer.request("/feed") as trace:
            with tracer.span("render") as render:
                do_render()
                with tracer.span("rank"):
                    do_rank()
        print(trace.total_cpu_cost)
    """

    def __init__(self) -> None:
        self._trace_counter = itertools.count(1)
        self._span_counter = itertools.count(1)
        self._local = threading.local()
        self.completed: List[RequestTrace] = []

    # ------------------------------------------------------------------
    # Context helpers
    # ------------------------------------------------------------------

    def _current_trace(self) -> Optional[RequestTrace]:
        return getattr(self._local, "trace", None)

    def _current_span(self) -> Optional[Span]:
        stack = getattr(self._local, "span_stack", None)
        return stack[-1] if stack else None

    def request(self, endpoint: str) -> "_RequestContext":
        """Begin a new request trace on the calling thread."""
        trace = RequestTrace(
            trace_id=next(self._trace_counter),
            endpoint=endpoint,
            start=CLOCK(),
        )
        return _RequestContext(self, trace)

    def span(
        self,
        name: str,
        cpu_cost: float = 0.0,
        parent: Optional[Span] = None,
        trace: Optional[RequestTrace] = None,
    ) -> "_SpanContext":
        """Begin a span under the current (or given) parent.

        Args:
            name: Operation name.
            cpu_cost: Pre-measured CPU cost to record; simulated
                workloads pass the modelled cost directly.
            parent: Explicit parent span for cross-thread hand-offs.
            trace: Explicit trace for cross-thread hand-offs.

        Raises:
            RuntimeError: When no trace is active and none was given.
        """
        active_trace = trace or self._current_trace()
        if active_trace is None:
            raise RuntimeError("span() outside of a request trace")
        effective_parent = parent if parent is not None else self._current_span()
        span = Span(
            span_id=next(self._span_counter),
            name=name,
            parent_id=effective_parent.span_id if effective_parent else None,
            thread_name=threading.current_thread().name,
            cpu_cost=cpu_cost,
            start=CLOCK(),
        )
        return _SpanContext(self, active_trace, span)


class _RequestContext:
    def __init__(self, tracer: Tracer, trace: RequestTrace) -> None:
        self._tracer = tracer
        self.trace = trace

    def __enter__(self) -> RequestTrace:
        self._tracer._local.trace = self.trace
        self._tracer._local.span_stack = []
        return self.trace

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._local.trace = None
        self._tracer._local.span_stack = []
        self._tracer.completed.append(self.trace)


class _SpanContext:
    def __init__(self, tracer: Tracer, trace: RequestTrace, span: Span) -> None:
        self._tracer = tracer
        self._trace = trace
        self.span = span
        self._had_local_trace = False

    def __enter__(self) -> Span:
        local = self._tracer._local
        # Cross-thread spans adopt the trace for the span's lifetime.
        if getattr(local, "trace", None) is None:
            local.trace = self._trace
            local.span_stack = []
            self._had_local_trace = False
        else:
            self._had_local_trace = True
        local.span_stack.append(self.span)
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        local = self._tracer._local
        self.span.duration = CLOCK() - self.span.start
        local.span_stack.pop()
        self._trace.spans.append(self.span)
        if not self._had_local_trace:
            local.trace = None


class EndpointCostAggregator:
    """Aggregates completed traces into endpoint-level cost series.

    Per collection interval, emits for each endpoint:

    - ``{service}.endpoint{path}.cost`` — mean aggregated CPU cost per
      request (the endpoint-level regression metric);
    - ``{service}.endpoint{path}.latency`` — mean end-to-end latency;
    - ``{service}.endpoint{path}.requests`` — request count.
    """

    def __init__(self, database: TimeSeriesDatabase, service: str) -> None:
        self.database = database
        self.service = service

    def ingest(self, timestamp: float, traces: Sequence[RequestTrace]) -> int:
        """Aggregate one interval's traces; returns points written."""
        by_endpoint: Dict[str, List[RequestTrace]] = {}
        for trace in traces:
            by_endpoint.setdefault(trace.endpoint, []).append(trace)

        written = 0
        for endpoint, group in sorted(by_endpoint.items()):
            suffix = endpoint.replace("/", ".")
            tags = {"service": self.service, "endpoint": endpoint}
            costs = [t.total_cpu_cost for t in group]
            latencies = [t.end_to_end_latency for t in group]
            self.database.write(
                f"{self.service}.endpoint{suffix}.cost",
                timestamp,
                sum(costs) / len(costs),
                {**tags, "metric": "endpoint_cost"},
            )
            self.database.write(
                f"{self.service}.endpoint{suffix}.latency",
                timestamp,
                sum(latencies) / len(latencies),
                {**tags, "metric": "endpoint_latency"},
            )
            self.database.write(
                f"{self.service}.endpoint{suffix}.requests",
                timestamp,
                float(len(group)),
                {**tags, "metric": "endpoint_requests"},
            )
            written += 3
        return written
