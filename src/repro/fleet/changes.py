"""Code and configuration changes.

The root cause of every true regression is a code or configuration change
(§5.6).  A :class:`CodeChange` carries the metadata FBDetect's root-cause
analysis consumes — title, summary, touched subroutines, deploy time —
plus the *effects* the simulator applies to the call graph when the
change deploys: cost scaling (a real regression/improvement) and cost
shifts (refactors that move cost between subroutines without changing the
total, the Figure 1(b) false-positive source).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ChangeEffect", "CostShift", "CodeChange", "ChangeLog"]


@dataclass(frozen=True)
class ChangeEffect:
    """Scale one subroutine's self cost by ``factor`` (> 1 regresses)."""

    subroutine: str
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise ValueError("factor must be >= 0")


@dataclass(frozen=True)
class CostShift:
    """Move ``fraction`` of ``source``'s self cost into ``target``.

    Models refactoring: total cost is conserved, so any regression that
    appears in ``target`` alone is a false positive.
    """

    source: str
    target: str
    fraction: float

    def __post_init__(self) -> None:
        if not 0 <= self.fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")


@dataclass(frozen=True)
class CodeChange:
    """A deployed code or configuration change.

    Attributes:
        change_id: Unique id (commit hash analogue).
        deploy_time: Simulation time (seconds) the change lands fleet-wide.
        title: One-line description.
        summary: Longer description (root-cause text analysis input).
        author: Author handle.
        kind: ``"code"`` or ``"config"``.
        effects: Cost-scaling effects applied at deploy time.
        cost_shifts: Refactoring cost moves applied at deploy time.
        exported: Whether the change is visible to FBDetect.  §6.3 found
            11/61 un-root-caused regressions were caused by changes not
            exported to FBDetect; un-exported changes are invisible to
            root-cause analysis but still hit the fleet.
    """

    change_id: str
    deploy_time: float
    title: str = ""
    summary: str = ""
    author: str = ""
    kind: str = "code"
    effects: Tuple[ChangeEffect, ...] = ()
    cost_shifts: Tuple[CostShift, ...] = ()
    exported: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("code", "config"):
            raise ValueError(f"kind must be 'code' or 'config', got {self.kind!r}")
        if not isinstance(self.effects, tuple):
            object.__setattr__(self, "effects", tuple(self.effects))
        if not isinstance(self.cost_shifts, tuple):
            object.__setattr__(self, "cost_shifts", tuple(self.cost_shifts))

    @property
    def modified_subroutines(self) -> Tuple[str, ...]:
        """Every subroutine this change touches (effects + both shift ends)."""
        names: List[str] = [e.subroutine for e in self.effects]
        for shift in self.cost_shifts:
            names.extend((shift.source, shift.target))
        return tuple(dict.fromkeys(names))

    @property
    def is_regression(self) -> bool:
        """Whether any effect increases cost."""
        return any(e.factor > 1.0 for e in self.effects)


class ChangeLog:
    """Time-ordered record of changes, queryable by deploy window.

    Root-cause analysis generates candidates "by examining code or
    configuration changes deployed immediately before the regression
    occurred" (§5.6) — :meth:`deployed_between` serves that query,
    returning only *exported* changes.
    """

    def __init__(self, changes: Optional[Sequence[CodeChange]] = None) -> None:
        self._changes: List[CodeChange] = sorted(
            changes or [], key=lambda c: c.deploy_time
        )

    def __len__(self) -> int:
        return len(self._changes)

    def __iter__(self):
        return iter(self._changes)

    def add(self, change: CodeChange) -> None:
        """Insert a change keeping deploy-time order."""
        self._changes.append(change)
        self._changes.sort(key=lambda c: c.deploy_time)

    def get(self, change_id: str) -> Optional[CodeChange]:
        for change in self._changes:
            if change.change_id == change_id:
                return change
        return None

    def deployed_between(self, start: float, end: float) -> List[CodeChange]:
        """Exported changes with ``start <= deploy_time < end``."""
        return [
            c for c in self._changes if start <= c.deploy_time < end and c.exported
        ]

    def all_between(self, start: float, end: float) -> List[CodeChange]:
        """All changes in the window, exported or not (simulator use)."""
        return [c for c in self._changes if start <= c.deploy_time < end]
