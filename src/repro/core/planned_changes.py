"""Planned-change correlation (the paper's §8 future work).

"Planned capacity changes also trigger false positives, so we plan to
correlate regressions with these known changes."  This module implements
that extension: operators register :class:`PlannedChange` records
(capacity reductions, traffic migrations, experiment ramps) with a time
window and a scope; a regression whose change point falls inside a
matching planned window — and whose magnitude is within the change's
declared impact — is suppressed as expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.types import DetectionVerdict, FilterReason, Regression

__all__ = ["PlannedChange", "PlannedChangeCorrelator"]

#: Tolerance (seconds) around a change's window when matching regression
#: change points: deploys rarely land at the exact planned instant.
TIME_SLACK = 1800.0


@dataclass(frozen=True)
class PlannedChange:
    """A known, intentional change that will move metrics.

    Attributes:
        change_id: Identifier (maintenance ticket, experiment name).
        start: When its impact begins.
        end: When its impact is expected to end (``inf`` for permanent
            changes like a capacity reduction).
        description: Operator-facing context.
        services: Services affected; empty means all.
        metrics: Metric types affected (``"cpu"``, ``"throughput"`` ...);
            empty means all.
        expected_relative_impact: Largest relative metric shift this
            change is expected to cause.  Regressions exceeding it are
            NOT suppressed — a planned change is no excuse for a larger-
            than-planned regression.
    """

    change_id: str
    start: float
    end: float = float("inf")
    description: str = ""
    services: frozenset = frozenset()
    metrics: frozenset = frozenset()
    expected_relative_impact: float = float("inf")

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("end must be >= start")
        if not isinstance(self.services, frozenset):
            object.__setattr__(self, "services", frozenset(self.services))
        if not isinstance(self.metrics, frozenset):
            object.__setattr__(self, "metrics", frozenset(self.metrics))

    def covers(self, regression: Regression, slack: float) -> bool:
        """Whether this planned change plausibly explains ``regression``."""
        if not self.start - slack <= regression.change_time <= self.end + slack:
            return False
        if self.services and regression.context.service not in self.services:
            return False
        if self.metrics and regression.context.metric_name not in self.metrics:
            return False
        relative = abs(regression.relative_magnitude)
        return relative <= self.expected_relative_impact


class PlannedChangeCorrelator:
    """Suppresses regressions explained by registered planned changes.

    Args:
        planned: Initially registered changes.
    """

    def __init__(self, planned: Sequence[PlannedChange] = ()) -> None:
        self._planned: List[PlannedChange] = list(planned)

    def register(self, change: PlannedChange) -> None:
        """Register a planned change."""
        self._planned.append(change)

    def planned(self) -> List[PlannedChange]:
        """Registered changes, ordered by start time."""
        return sorted(self._planned, key=lambda c: c.start)

    def check(self, regression: Regression) -> DetectionVerdict:
        """Keep the regression unless a planned change explains it."""
        for change in self._planned:
            if change.covers(regression, TIME_SLACK):
                return DetectionVerdict.drop(
                    FilterReason.PLANNED_CHANGE,
                    detail=(
                        f"explained by planned change {change.change_id}"
                        + (f" ({change.description})" if change.description else "")
                    ),
                )
        return DetectionVerdict.keep(detail="no matching planned change")
