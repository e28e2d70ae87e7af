"""The quarantine store: where irreparable points go to be triaged.

Quarantined points never reach the TSDB — from detection's point of
view they are gaps, which the gap-aware
:class:`~repro.quality.gaps.QualityGate` accounts for.  The store keeps
the offending points themselves (capped, oldest evicted first) plus
per-series reason-code counts and quality scores that are *not* capped,
so ``/quality`` can always answer "which series is rotting and why"
even after the raw evidence has been evicted.

Reason codes are a closed vocabulary (:data:`REASONS`) so runbooks and
dashboards can key on them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["QuarantineStore", "QUARANTINE_CAPACITY", "REASONS"]

#: Point records a shard's store retains; beyond it the oldest records
#: are evicted (their per-series counts remain).
QUARANTINE_CAPACITY = 1024

#: Closed vocabulary of quarantine reason codes (see docs/RUNBOOK.md).
REASONS: Tuple[str, ...] = (
    "not_finite",       # NaN or +/-Inf value
)


class QuarantineStore:
    """Capped store of rejected points with per-series accounting.

    Holds at most :data:`QUARANTINE_CAPACITY` point records.  Picklable:
    rides inside the ingest worker's shard state, so quarantine survives
    checkpoints, restores, and parallel shard advances.
    """

    def __init__(self) -> None:
        self.capacity = QUARANTINE_CAPACITY
        # (series, timestamp, repr(value), reason) — value kept as repr
        # so NaN/Inf stay JSON-safe on /quality.
        self._records: Deque[Tuple[str, float, str, str]] = deque(maxlen=self.capacity)
        self._by_series: Dict[str, Dict[str, int]] = {}
        self.total = 0
        self.evicted = 0

    def add(self, series: str, timestamp: float, value: float, reason: str) -> None:
        """Quarantine one point under ``reason`` (a :data:`REASONS` code).

        Raises:
            ValueError: On a reason outside the closed vocabulary — a
                new failure mode needs a runbook entry, not a free-form
                string.
        """
        if reason not in REASONS:
            raise ValueError(f"unknown quarantine reason {reason!r}")
        if len(self._records) == self.capacity:
            self.evicted += 1
        self._records.append((series, float(timestamp), repr(value), reason))
        counts = self._by_series.setdefault(series, {})
        counts[reason] = counts.get(reason, 0) + 1
        self.total += 1

    def count(self, series: Optional[str] = None) -> int:
        """Quarantined-point count, overall or for one series."""
        if series is None:
            return self.total
        return sum(self._by_series.get(series, {}).values())

    def reasons(self, series: str) -> Dict[str, int]:
        """Per-reason counts for one series (empty when clean)."""
        return dict(self._by_series.get(series, {}))

    def series_names(self) -> List[str]:
        """Every series with at least one quarantined point, sorted."""
        return sorted(self._by_series)

    def release(self, series: str) -> int:
        """Un-quarantine a series: drop its records and counts.

        The points themselves are irreparable (that is why they are
        here); releasing acknowledges the upstream fix and resets the
        series' quality accounting so its score recovers.

        Returns:
            How many quarantined points were attributed to the series.
        """
        counts = self._by_series.pop(series, None)
        if counts is None:
            return 0
        released = sum(counts.values())
        self._records = deque(
            (r for r in self._records if r[0] != series), maxlen=self.capacity
        )
        self.total -= released
        return released

    def snapshot(self) -> dict:
        """JSON view for ``/quality``: totals plus the 50 worst offenders.

        Read without the lock :meth:`add` runs under, so it copies first:
        ``dict(d)`` and ``list(q)`` allocate nothing per element.  Not
        ``d.items()`` — each pair is a tracked tuple, an allocation can
        start a collection, and a finalizer it runs can switch threads
        mid-copy (``dictionary changed size during iteration``)."""
        offenders = sorted(
            dict(self._by_series).items(),
            key=lambda item: (-sum(item[1].values()), item[0]),
        )
        return {
            "total": self.total,
            "retained": len(self._records),
            "capacity": self.capacity,
            "evicted": self.evicted,
            "series": {
                name: {"count": sum(counts.values()), "reasons": dict(counts)}
                for name, counts in offenders[:50]
            },
            "recent": [
                {"series": s, "timestamp": ts, "value": value, "reason": reason}
                for s, ts, value, reason in list(self._records)[-10:]
            ],
        }
