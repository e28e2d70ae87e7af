"""A TAO-style graph database substrate.

TAO [Bronson et al., ATC '13] stores Facebook's social graph as typed
*objects* (nodes) and typed *associations* (directed edges), serving
point reads, association lists, and counts.  FBDetect monitors TAO's
query-processing throughput and, for serverless-platform traffic, the
per-data-type I/O it receives (§3).

This is a functional in-memory implementation: typed objects and
associations with the classic TAO API (``assoc_add``, ``assoc_range``,
``assoc_count``, ``obj_get`` ...), a per-operation cost
model, and a metrics emitter producing the per-data-type time series the
detection pipeline scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["TaoObject", "Association", "TaoStore", "TaoMetricsEmitter"]

#: The service name the TAO series are written under.
SERVICE = "tao"


@dataclass(frozen=True)
class TaoObject:
    """A typed graph node.

    Attributes:
        object_id: Globally unique id.
        otype: Object type name (e.g. ``"user"``, ``"post"``).
        data: Payload key/value pairs.
    """

    object_id: int
    otype: str
    data: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Association:
    """A typed directed edge ``id1 --atype--> id2``.

    Attributes:
        id1: Source object id.
        atype: Association type (e.g. ``"friend"``, ``"likes"``).
        id2: Destination object id.
        time: Association timestamp; range queries return newest first.
        data: Payload.
    """

    id1: int
    atype: str
    id2: int
    time: float
    data: Dict[str, str] = field(default_factory=dict)


#: Relative CPU cost of each operation type, used by the cost model.
_OPERATION_COSTS = {
    "obj_get": 1.0,
    "obj_add": 1.5,
    "assoc_range": 2.5,
    "assoc_count": 0.8,
    "assoc_add": 2.0,
}


class TaoStore:
    """In-memory TAO: typed objects + time-ordered association lists.

    Every operation is counted per (operation, data type), feeding the
    per-data-type I/O metrics FBDetect monitors.
    """

    def __init__(self) -> None:
        self._objects: Dict[int, TaoObject] = {}
        self._assoc_lists: Dict[Tuple[int, str], List[Association]] = {}
        self._id_counter = itertools.count(1)
        self.operation_counts: Dict[Tuple[str, str], int] = {}
        self.operation_cost: Dict[Tuple[str, str], float] = {}
        #: Multiplier per data type — a "code change" regressing one data
        #: type's handling path scales its cost here.
        self.cost_multipliers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record(self, operation: str, data_type: str) -> None:
        key = (operation, data_type)
        self.operation_counts[key] = self.operation_counts.get(key, 0) + 1
        multiplier = self.cost_multipliers.get(data_type, 1.0)
        cost = _OPERATION_COSTS[operation] * multiplier
        self.operation_cost[key] = self.operation_cost.get(key, 0.0) + cost

    def regress_data_type(self, data_type: str, factor: float) -> None:
        """Scale a data type's per-operation cost (an injected regression).

        Raises:
            ValueError: On a non-positive factor.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.cost_multipliers[data_type] = (
            self.cost_multipliers.get(data_type, 1.0) * factor
        )

    def reset_accounting(self) -> Dict[Tuple[str, str], float]:
        """Return and clear the accumulated per-type costs (one interval)."""
        costs = dict(self.operation_cost)
        self.operation_counts.clear()
        self.operation_cost.clear()
        return costs

    # ------------------------------------------------------------------
    # Object API
    # ------------------------------------------------------------------

    def obj_add(self, otype: str, data: Optional[Dict[str, str]] = None) -> TaoObject:
        """Create an object; returns it with its assigned id."""
        obj = TaoObject(object_id=next(self._id_counter), otype=otype, data=dict(data or {}))
        self._objects[obj.object_id] = obj
        self._record("obj_add", otype)
        return obj

    def obj_get(self, object_id: int) -> Optional[TaoObject]:
        """Fetch an object by id (``None`` when absent)."""
        obj = self._objects.get(object_id)
        self._record("obj_get", obj.otype if obj else "unknown")
        return obj

    # ------------------------------------------------------------------
    # Association API
    # ------------------------------------------------------------------

    def assoc_add(
        self,
        id1: int,
        atype: str,
        id2: int,
        time: float,
        data: Optional[Dict[str, str]] = None,
    ) -> Association:
        """Add (or refresh) the association ``id1 --atype--> id2``."""
        assoc = Association(id1=id1, atype=atype, id2=id2, time=time, data=dict(data or {}))
        bucket = self._assoc_lists.setdefault((id1, atype), [])
        bucket[:] = [a for a in bucket if a.id2 != id2]
        bucket.append(assoc)
        bucket.sort(key=lambda a: -a.time)  # newest first, TAO order
        self._record("assoc_add", atype)
        return assoc

    def assoc_range(
        self, id1: int, atype: str, offset: int = 0, limit: int = 50
    ) -> List[Association]:
        """Newest-first page of ``id1``'s ``atype`` associations."""
        self._record("assoc_range", atype)
        return self._assoc_lists.get((id1, atype), [])[offset : offset + limit]

    def assoc_count(self, id1: int, atype: str) -> int:
        """Number of ``atype`` associations out of ``id1``."""
        self._record("assoc_count", atype)
        return len(self._assoc_lists.get((id1, atype), []))


class TaoMetricsEmitter:
    """Turns per-interval TAO accounting into per-data-type series.

    Emits ``tao.{data_type}.io_cost`` (summed operation cost) and
    ``tao.{data_type}.io_count`` per collection interval, plus the
    overall ``tao.query_throughput`` — the metrics of Table 1's TAO rows.
    """

    def __init__(self, database: TimeSeriesDatabase) -> None:
        self.database = database

    def ingest(self, timestamp: float, store: TaoStore, interval: float = 60.0) -> int:
        """Harvest and reset the store's accounting; returns points written."""
        counts = dict(store.operation_counts)
        costs = store.reset_accounting()

        per_type_cost: Dict[str, float] = {}
        per_type_count: Dict[str, int] = {}
        for (operation, data_type), cost in costs.items():
            per_type_cost[data_type] = per_type_cost.get(data_type, 0.0) + cost
        for (operation, data_type), count in counts.items():
            per_type_count[data_type] = per_type_count.get(data_type, 0) + count

        written = 0
        for data_type in sorted(per_type_cost):
            self.database.write(
                f"{SERVICE}.{data_type}.io_cost",
                timestamp,
                per_type_cost[data_type],
                {"service": SERVICE, "data_type": data_type, "metric": "io_cost"},
            )
            self.database.write(
                f"{SERVICE}.{data_type}.io_count",
                timestamp,
                float(per_type_count.get(data_type, 0)),
                {"service": SERVICE, "data_type": data_type, "metric": "io_count"},
            )
            written += 2

        total_ops = sum(per_type_count.values())
        self.database.write(
            f"{SERVICE}.query_throughput",
            timestamp,
            total_ops / interval,
            {"service": SERVICE, "metric": "throughput"},
        )
        return written + 1
