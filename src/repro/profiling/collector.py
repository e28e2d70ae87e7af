"""Fleet-wide profile collection into the time-series database.

Bridges the profiling layer and the TSDB: batches of stack-trace samples
(one batch per collection interval, aggregated across a service's
servers) become per-subroutine gCPU time-series points that the detection
pipeline scans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.profiling.gcpu import compute_gcpu
from repro.profiling.stacktrace import StackTrace
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["FleetProfileCollector"]

#: Subroutines below this gCPU are not written — the paper's
#: "non-trivial" cutoff (0.001%).
MIN_GCPU = 1e-5


class FleetProfileCollector:
    """Turns per-interval sample batches into gCPU time series.

    Series are named ``{service}.{subroutine}.gcpu`` and tagged with
    ``service``, ``subroutine`` and ``metric="gcpu"`` so the pipeline can
    route them.  Samples carrying frame metadata additionally produce
    ``{service}.{subroutine}@{metadata}.gcpu`` series, enabling
    metadata-annotated regression detection (§3).

    Args:
        database: Destination TSDB.
        service: Service name for series naming and tags.
    """

    def __init__(self, database: TimeSeriesDatabase, service: str) -> None:
        self.database = database
        self.service = service
        self.sample_history: List[StackTrace] = []
        self._history_limit = 200_000

    def ingest(self, timestamp: float, samples: Sequence[StackTrace]) -> int:
        """Ingest one interval's samples; returns series points written.

        Also retains the raw samples (bounded) so downstream passes —
        cost-shift analysis and PairwiseDedup's stack-trace-overlap
        feature — can consult them.
        """
        if not samples:
            return 0
        self.sample_history.extend(samples)
        if len(self.sample_history) > self._history_limit:
            del self.sample_history[: len(self.sample_history) - self._history_limit]

        table = compute_gcpu(samples)
        written = 0
        for subroutine in table.non_trivial(MIN_GCPU):
            self.database.write(
                f"{self.service}.{subroutine}.gcpu",
                timestamp,
                table.gcpu(subroutine),
                tags={
                    "service": self.service,
                    "subroutine": subroutine,
                    "metric": "gcpu",
                },
            )
            written += 1
        return written + self._ingest_metadata(timestamp, samples)

    def _ingest_metadata(self, timestamp: float, samples: Sequence[StackTrace]) -> int:
        """Emit gCPU series keyed by (subroutine, metadata) pairs."""
        weights: Dict[tuple, float] = {}
        total = 0.0
        for trace in samples:
            total += trace.weight
            seen = set()
            for frame in trace.frames:
                if frame.metadata is None:
                    continue
                key = (frame.subroutine, frame.metadata)
                if key not in seen:
                    weights[key] = weights.get(key, 0.0) + trace.weight
                    seen.add(key)
        written = 0
        for (subroutine, metadata), weight in weights.items():
            gcpu = weight / total if total > 0 else 0.0
            if gcpu < MIN_GCPU:
                continue
            self.database.write(
                f"{self.service}.{subroutine}@{metadata}.gcpu",
                timestamp,
                gcpu,
                tags={
                    "service": self.service,
                    "subroutine": subroutine,
                    "metadata": metadata,
                    "metric": "gcpu",
                },
            )
            written += 1
        return written
