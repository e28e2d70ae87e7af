"""The quarantine store: where irreparable points go to be triaged.

Quarantined points never reach the TSDB — from detection's point of
view they are gaps, which the gap-aware
:class:`~repro.quality.gaps.QualityGate` accounts for.  Admission
quarantines a point for one thing only: a NaN or ±Inf value.  The store
keeps the offending points themselves (capped, oldest evicted first)
plus per-series counts that are *not* capped, so ``/quality`` can always
answer "which series is rotting" even after the raw evidence has been
evicted.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

__all__ = ["QuarantineStore", "QUARANTINE_CAPACITY"]

#: Point records a shard's store retains; beyond it the oldest records
#: are evicted (their per-series counts remain).
QUARANTINE_CAPACITY = 1024


class QuarantineStore:
    """Capped store of rejected points with per-series accounting.

    Holds at most :data:`QUARANTINE_CAPACITY` point records.  Picklable:
    rides inside the ingest worker's shard state, so quarantine survives
    checkpoints, restores, and parallel shard advances.
    """

    def __init__(self) -> None:
        self.capacity = QUARANTINE_CAPACITY
        # (series, timestamp, repr(value)) — value kept as repr so
        # NaN/Inf stay JSON-safe on /quality.
        self._records: Deque[Tuple[str, float, str]] = deque(maxlen=self.capacity)
        self._by_series: Dict[str, int] = {}
        self.evicted = 0

    def add(self, series: str, timestamp: float, value: float) -> None:
        """Quarantine one point."""
        if len(self._records) == self.capacity:
            self.evicted += 1
        self._records.append((series, float(timestamp), repr(value)))
        self._by_series[series] = self._by_series.get(series, 0) + 1

    def count(self, series: str) -> int:
        """The series' quarantined points since its last release."""
        return self._by_series.get(series, 0)

    def series_names(self) -> List[str]:
        """Every series with at least one quarantined point, sorted."""
        return sorted(self._by_series)

    def release(self, series: str) -> int:
        """Un-quarantine a series: drop its records and count.

        The points themselves are irreparable (that is why they are
        here); releasing acknowledges the upstream fix and resets the
        series' quality accounting so its score recovers.

        Returns:
            How many quarantined points were attributed to the series.
        """
        released = self._by_series.pop(series, 0)
        if released:
            self._records = deque(
                (r for r in self._records if r[0] != series), maxlen=self.capacity
            )
        return released

    def snapshot(self) -> dict:
        """JSON view for ``/quality``: totals plus the 50 worst offenders.

        Read without the lock :meth:`add` runs under, so it copies first:
        ``dict(d)`` and ``list(q)`` allocate nothing per element.  Not
        ``d.items()`` — each pair is a tracked tuple, an allocation can
        start a collection, and a finalizer it runs can switch threads
        mid-copy (``dictionary changed size during iteration``)."""
        counts = dict(self._by_series)
        offenders = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return {
            "total": sum(counts.values()),
            "retained": len(self._records),
            "capacity": self.capacity,
            "evicted": self.evicted,
            "series": {name: {"count": count} for name, count in offenders[:50]},
            "recent": [
                {"series": s, "timestamp": ts, "value": value}
                for s, ts, value in list(self._records)[-10:]
            ],
        }
