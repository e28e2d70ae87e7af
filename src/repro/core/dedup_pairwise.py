"""PairwiseDedup: thorough second-pass deduplication (§5.5.2).

Where SOMDedup deduplicates same-type metrics within one analysis window,
PairwiseDedup merges regressions *across* windows and metric types (gCPU
vs throughput).  Each new representative regression is compared against
existing groups on a set of similarity features; the merge rules
(:data:`MERGE_RULES`) decide whether the scores warrant a merge.

Built-in features:

- ``time_correlation`` — max Pearson correlation between the source's
  series and any member's series, aligned on shared timestamps.
- ``text_similarity`` — max token-count cosine similarity between metric
  IDs (raw counts, not TF-IDF: pairwise fitting would down-weight
  exactly the tokens two metric IDs share).
- ``stack_overlap`` — max fraction of shared stack samples between the
  source's subroutine and the union of the group's subroutines.

A group keeps only what those features read of its first
:data:`MAX_MEMBERS_COMPARED` members — their metric context and their
analysis + extended samples, as a list — so the groups a monitor's state
carries from run to run stay small however many regressions merge into
them.  A group's id is its position plus :data:`FIRST_GROUP_ID`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MetricContext,
    MonitorState,
    Regression,
    ScanContext,
)
from repro.profiling.gcpu import stack_trace_overlap
from repro.profiling.stacktrace import StackTrace
from repro.stats.correlation import aligned_pearson
from repro.text.similarity import token_cosine_similarity

__all__ = ["MergeRule", "PairwiseDedup"]


@dataclass(frozen=True)
class MergeRule:
    """A merge policy over feature scores.

    Attributes:
        thresholds: Per-feature minimum score.
        require_all: ``True`` — every listed feature must clear its
            threshold; ``False`` — any one suffices.
    """

    thresholds: Mapping[str, float]
    require_all: bool = False

    def matches(self, scores: Mapping[str, float]) -> bool:
        checks = [
            scores.get(feature, 0.0) >= minimum
            for feature, minimum in self.thresholds.items()
        ]
        if not checks:
            return False
        return all(checks) if self.require_all else any(checks)


#: The merge policy: strong time correlation alone, strong text similarity
#: alone, or meaningful stack overlap, merges.
MERGE_RULES = (
    MergeRule({"time_correlation": 0.9}),
    MergeRule({"text_similarity": 0.75}),
    MergeRule({"stack_overlap": 0.6}),
    # Correlated timing alone is weak evidence (unrelated series shift
    # together whenever two changes land in the same deploy window), so
    # the combined rule also demands meaningful metric-ID overlap beyond
    # the service/namespace tokens every metric of a service shares.
    MergeRule(
        {"time_correlation": 0.7, "text_similarity": 0.65}, require_all=True
    ),
)
#: Cap on the members a group keeps and compares, to bound the pairwise
#: cost: the first ones merged.
MAX_MEMBERS_COMPARED = 10
#: The first pairwise group's id, distinct from SOMDedup's.
FIRST_GROUP_ID = 1_000_000


@dataclass(frozen=True, eq=False)
class _Member:
    """What the features read of one regression: its context and owned
    copies of its analysis + extended samples (not its window)."""

    context: MetricContext
    times: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, regression: Regression) -> "_Member":
        window = regression.window
        return cls(
            regression.context,
            window.times[window.analysis_at :].copy(),
            window.analysis_and_extended.copy(),
        )


class PairwiseDedup:
    """Pairwise-comparison deduplication against the persistent groups
    of a monitor's state."""

    def process(
        self, regressions: Sequence[Regression], context: ScanContext, state: MonitorState
    ) -> None:
        """Merge each new regression into ``state``'s groups or open a new one.

        Regressions merged into an existing group receive a
        PAIRWISE_DUPLICATE verdict; group openers a keep verdict.
        """
        groups: List[List[_Member]] = state.pairwise_groups
        for regression in regressions:
            member = _Member.of(regression)
            index = self._best_group(member, groups, context.samples)
            if index is not None:
                regression.representative = False
                regression.record(
                    DetectionVerdict.drop(
                        FilterReason.PAIRWISE_DUPLICATE,
                        detail=f"merged into group {FIRST_GROUP_ID + index}",
                    )
                )
            else:
                index = len(groups)
                regression.record(DetectionVerdict.keep(detail="PairwiseDedup new group"))
                groups.append([])
            regression.group_id = FIRST_GROUP_ID + index
            if len(groups[index]) < MAX_MEMBERS_COMPARED:
                groups[index].append(member)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _best_group(
        self, source: _Member, groups: List[List[_Member]], samples: Sequence[StackTrace]
    ) -> Optional[int]:
        """The index of the matching group with the highest aggregate
        score, if any."""
        best: Optional[int] = None
        best_score = -np.inf
        for index, members in enumerate(groups):
            scores = self.feature_scores(source, members, samples)
            if any(rule.matches(scores) for rule in MERGE_RULES):
                aggregate = sum(scores.values())
                if aggregate > best_score:
                    best, best_score = index, aggregate
        return best

    @staticmethod
    def feature_scores(
        source: _Member, members: List[_Member], samples: Sequence[StackTrace]
    ) -> Dict[str, float]:
        """Similarity features between a regression and a group's members."""
        time_correlation = 0.0
        text_similarity = 0.0
        for member in members:
            correlation = aligned_pearson(
                source.times, source.values, member.times, member.values
            )
            time_correlation = max(time_correlation, correlation)
            similarity = token_cosine_similarity(
                source.context.metric_id, member.context.metric_id
            )
            text_similarity = max(text_similarity, similarity)

        stack_overlap = 0.0
        source_subroutine = source.context.subroutine
        if source_subroutine and samples:
            for member in members:
                target = member.context.subroutine
                if not target:
                    continue
                overlap = stack_trace_overlap(samples, source_subroutine, target)
                stack_overlap = max(stack_overlap, overlap)

        return {
            "time_correlation": time_correlation,
            "text_similarity": text_similarity,
            "stack_overlap": stack_overlap,
        }
