"""Fault plans: what to break, where, and how often.

A :class:`FaultPlan` is a seed plus an ordered list of :class:`FaultSpec`
entries.  Each spec targets one *site* — a named hook point in the
service (see :data:`SITES`) — and fires on matching invocations of that
site, subject to its ``after`` offset, ``times`` budget, and
``probability``.  Plans are plain data: they serialize to JSON for the
CLI's ``--fault-plan`` flag and for CI chaos-seed matrices, and
:meth:`FaultPlan.chaos` generates a randomized-but-reproducible schedule
from a single integer seed.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "SITES"]


class FaultKind(str, enum.Enum):
    """Every fault the injector knows how to execute."""

    #: The worker process advancing a shard dies hard (``os._exit``),
    #: which the parent sees as end-of-file on that worker's pipe.
    WORKER_CRASH = "worker_crash"
    #: The worker process sleeps past the per-shard advance deadline.
    ADVANCE_HANG = "advance_hang"
    #: One TSDB batch write raises mid-flush.
    FLUSH_ERROR = "flush_error"


#: Hook-point site for each fault kind.  Sites are the vocabulary the
#: injector and the service share: the service asks "anything for
#: ``worker.advance`` on shard 3?" and the injector answers from the
#: plan without the service knowing kinds exist.
SITES: Dict[FaultKind, str] = {
    FaultKind.WORKER_CRASH: "worker.advance",
    FaultKind.ADVANCE_HANG: "worker.advance",
    FaultKind.FLUSH_ERROR: "ingest.flush",
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        kind: What breaks (fixes the site; see :data:`SITES`).
        shard: Only fire for this shard id (``None`` = any shard).
        times: Firing budget; ``None`` means unlimited.  Budgets are
            what let chaos runs *recover*: once a crash spec's budget is
            spent, retries of the same advance succeed.
        after: Skip the first ``after`` matching invocations of the
            site before becoming eligible.
        probability: Chance of firing per eligible invocation, drawn
            from the spec's seeded RNG stream (1.0 = always).
        hang_seconds: Sleep duration for :attr:`FaultKind.ADVANCE_HANG`.
    """

    kind: FaultKind
    shard: Optional[int] = None
    times: Optional[int] = 1
    after: int = 0
    probability: float = 1.0
    hang_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    @property
    def site(self) -> str:
        return SITES[self.kind]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "shard": self.shard,
            "times": self.times,
            "after": self.after,
            "probability": self.probability,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Build a spec from a JSON-shaped dict.

        Raises:
            ValueError: On an unknown kind or unknown keys (a typo in a
                fault plan must fail loudly, not silently not-inject).
        """
        data = dict(payload)
        try:
            kind = FaultKind(data.pop("kind"))
        except (KeyError, ValueError) as error:
            raise ValueError(f"unknown or missing fault kind in {payload!r}") from error
        known = {"shard", "times", "after", "probability", "hang_seconds"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault spec keys: {sorted(unknown)}")
        return cls(kind=kind, **data)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the ordered fault specs it drives.

    Example::

        plan = FaultPlan(seed=7, specs=(
            FaultSpec(FaultKind.WORKER_CRASH, times=2),
            FaultSpec(FaultKind.ADVANCE_HANG, hang_seconds=0.6, after=3),
            FaultSpec(FaultKind.FLUSH_ERROR, shard=1),
        ))
        injector = FaultInjector(plan)
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        specs = tuple(FaultSpec.from_dict(entry) for entry in payload.get("specs", []))
        return cls(seed=int(payload.get("seed", 0)), specs=specs)

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI's ``--fault-plan``).

        Raises:
            ValueError: On unreadable JSON or an invalid spec.
        """
        try:
            with open(path, "r", encoding="utf-8") as source:
                payload = json.load(source)
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"cannot read fault plan {path}: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def chaos(cls, seed: int, n_shards: int = 4) -> "FaultPlan":
        """A randomized-but-reproducible chaos schedule for drills.

        The same seed always yields the same plan, so a CI seed matrix
        reruns the exact drill that failed.  Every generated spec has a
        finite budget — chaos plans must *exhaust*, or the run could
        never converge back to the fault-free outcome.
        """
        rng = random.Random(f"repro.faults.chaos:{seed}")
        specs: List[FaultSpec] = [
            FaultSpec(
                FaultKind.WORKER_CRASH,
                shard=rng.choice([None] + list(range(n_shards))),
                times=rng.randint(1, 2),
                after=rng.randint(0, 4),
            )
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.8:
            specs.append(
                FaultSpec(
                    FaultKind.ADVANCE_HANG,
                    hang_seconds=round(rng.uniform(0.4, 0.8), 3),
                    after=rng.randint(0, 6),
                )
            )
        return cls(seed=seed, specs=tuple(specs))
