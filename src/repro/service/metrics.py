"""Self-metrics: the service measures its own pipeline.

FBDetect's §6.6 overhead analysis only makes sense once the detector is
itself instrumented.  This module provides two instrument kinds —
:class:`Counter` and :class:`Histogram` (fixed log-spaced buckets, built
for latency-in-seconds observations) — plus a :class:`MetricsRegistry`
that owns them by name and snapshots/restores itself for checkpoints,
and :func:`render`, the Prometheus style text exposition of ``/metrics``.

The registry holds what has no other home: a count an object already
keeps (ingest workers, admission, the schedulers' scan counts and
incremental caches, the service's own ints — every gauge ``/metrics``
serves among them) is folded into ``/metrics`` from that owner by
:mod:`repro.service.views`, never recorded here.  What does record
(:func:`repro.runtime.scheduler.publish`, the service's timers, the
parallel executor, ``WebhookSink``, the remote-write receiver) calls
only ``inc`` / ``observe``, so no core module imports this one.  It is
process-local — it holds locks, and nothing that is pickled holds it;
what survives a restart is its :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["Counter", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS", "render"]

#: Log-spaced latency buckets (seconds): 100µs .. 30s, plus +inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0).

        Raises:
            ValueError: On a negative increment.
        """
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Buckets are cumulative-style upper bounds (like Prometheus); one
    implicit +inf bucket catches the overflow.  Quantiles are estimated
    by linear interpolation within the winning bucket — exact enough for
    p50/p99 pipeline-latency reporting.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self._lock = threading.Lock()
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (q in [0, 1]); 0 when empty.

        Raises:
            ValueError: When ``q`` is outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for i, count in enumerate(self._counts):
                previous = cumulative
                cumulative += count
                if cumulative >= rank and count > 0:
                    lower = self.bounds[i - 1] if i > 0 else min(self._min, self.bounds[0])
                    upper = self.bounds[i] if i < len(self.bounds) else self._max
                    lower = max(lower, self._min)
                    upper = min(upper, self._max) if upper >= lower else lower
                    fraction = (rank - previous) / count
                    return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            return self._max

    def state(self) -> dict:
        """Raw internals (bucket counts included) for snapshots."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        """The histogram a :meth:`state` describes."""
        histogram = cls(state["bounds"])
        histogram._counts = list(state["counts"])
        histogram._count = state["count"]
        histogram._sum = state["sum"]
        histogram._min = state["min"] if state["min"] is not None else float("inf")
        histogram._max = state["max"] if state["max"] is not None else float("-inf")
        return histogram


class MetricsRegistry:
    """Named instruments plus convenience record/snapshot APIs.

    Example::

        metrics = MetricsRegistry()
        metrics.inc("service.sinks.delivered", 2)
        with metrics.timer("service.advance_seconds"):
            advance()
        print(render(metrics.snapshot()))
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(buckets)
            return histogram

    # -- convenience recorders -----------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager observing elapsed seconds into histogram ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state of every instrument.

        Histograms include raw bucket counts so :meth:`restore` is exact.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": {name: h.state() for name, h in sorted(histograms.items())},
        }

    def restore(self, snapshot: dict) -> None:
        """Reset this registry to a :meth:`snapshot`'s state."""
        with self._lock:
            self._counters.clear()
            self._histograms = {
                name: Histogram.from_state(state)
                for name, state in snapshot.get("histograms", {}).items()
            }
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)


def render(snapshot: dict) -> str:
    """Prometheus-style text exposition of a :meth:`MetricsRegistry.snapshot`
    or of what ``/metrics`` serves, which adds ``"gauges"`` beside them."""
    lines: List[str] = []
    for kind, metric_type in (("counters", "counter"), ("gauges", "gauge")):
        for name, value in snapshot.get(kind, {}).items():
            metric = _sanitize(name)
            lines.append(f"# TYPE {metric} {metric_type}")
            lines.append(f"{metric} {value:g}")
    for name, state in snapshot["histograms"].items():
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(state["bounds"], state["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
        cumulative += state["counts"][-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {state['sum']:g}")
        lines.append(f"{metric}_count {state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    """Map a dotted metric name onto the exposition charset."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
