"""ImportanceScore for choosing a group's representative (§5.5.1).

::

    ImportanceScore = w1 * RelativeCostChange
                    + w2 * AbsoluteCostChange
                    + w3 * (1 - PopularityScore)
                    + w4 * PotentialRootCauseFound

with the paper's weights w = (0.2, 0.6, 0.1, 0.1).  The representative should
have a significant change, avoid widely invoked subroutines (high
popularity), and ideally have known root-cause candidates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.types import Regression
from repro.profiling.stacktrace import StackTrace

__all__ = ["importance_score", "popularity_score"]

#: The term weights w1..w4 (§5.5.1's defaults).
RELATIVE_COST_WEIGHT = 0.2
ABSOLUTE_COST_WEIGHT = 0.6
UNPOPULARITY_WEIGHT = 0.1
ROOT_CAUSE_FOUND_WEIGHT = 0.1
#: Absolute cost change that maps to a full 1.0 on the AbsoluteCostChange
#: term (cost changes are unbounded, so they are squashed against it).
ABSOLUTE_SCALE = 0.01


def popularity_score(
    subroutine: Optional[str],
    samples: Sequence[StackTrace],
) -> float:
    """Probability of ``subroutine`` appearing in a random stack sample."""
    if subroutine is None or not samples:
        return 0.0
    total = hits = 0.0
    for trace in samples:
        total += trace.weight
        if trace.contains(subroutine):
            hits += trace.weight
    return hits / total if total > 0 else 0.0


def importance_score(regression: Regression, samples: Sequence[StackTrace] = ()) -> float:
    """ImportanceScore of a regression.

    Args:
        regression: The candidate representative.
        samples: Stack-trace history for the popularity term.

    Returns:
        The score; higher means a better representative.
    """
    relative = min(1.0, abs(regression.relative_magnitude))
    absolute = min(1.0, abs(regression.magnitude) / ABSOLUTE_SCALE)
    popularity = popularity_score(regression.context.subroutine, samples)
    has_root_cause = 1.0 if regression.root_cause_candidates else 0.0
    return (
        RELATIVE_COST_WEIGHT * relative
        + ABSOLUTE_COST_WEIGHT * absolute
        + UNPOPULARITY_WEIGHT * (1.0 - popularity)
        + ROOT_CAUSE_FOUND_WEIGHT * has_root_cause
    )
