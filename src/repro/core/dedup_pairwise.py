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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.types import DetectionVerdict, FilterReason, Regression, RegressionGroup
from repro.profiling.gcpu import stack_trace_overlap
from repro.profiling.stacktrace import StackTrace
from repro.stats.correlation import aligned_pearson
from repro.text.similarity import token_cosine_similarity

__all__ = ["MergeRule", "PairwiseDedup"]

#: ``id(regression) -> series_mapping()``, each built once per ``process()``
#: call however many comparisons read it (a Regression is unhashable).
_SeriesMemo = Dict[int, Dict[float, float]]


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
#: Cap on per-group member comparisons, to bound the pairwise cost.
MAX_MEMBERS_COMPARED = 10


class PairwiseDedup:
    """Pairwise-comparison deduplication against persistent groups.

    Args:
        samples: Stack-trace history for the stack-overlap feature.
    """

    def __init__(self, samples: Sequence[StackTrace] = ()) -> None:
        self.samples = list(samples)
        self.groups: List[RegressionGroup] = []
        self._next_group_id = 1_000_000  # distinct from SOMDedup ids

    def process(self, regressions: Sequence[Regression]) -> None:
        """Merge each new regression into :attr:`groups` or open a new one.

        Regressions merged into an existing group receive a
        PAIRWISE_DUPLICATE verdict; group openers a keep verdict.
        """
        series: _SeriesMemo = {}
        for regression in regressions:
            group = self._best_group(regression, series)
            if group is not None:
                group.add(regression)
                regression.representative = False
                regression.record(
                    DetectionVerdict.drop(
                        FilterReason.PAIRWISE_DUPLICATE,
                        detail=f"merged into group {group.group_id}",
                    )
                )
            else:
                group = RegressionGroup(group_id=self._next_group_id)
                self._next_group_id += 1
                group.add(regression)
                group.representative = regression
                regression.record(DetectionVerdict.keep(detail="PairwiseDedup new group"))
                self.groups.append(group)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _best_group(self, regression: Regression, series: _SeriesMemo) -> Optional[RegressionGroup]:
        """The matching group with the highest aggregate score, if any."""
        best: Optional[RegressionGroup] = None
        best_score = -np.inf
        for group in self.groups:
            scores = self.feature_scores(regression, group, series)
            if any(rule.matches(scores) for rule in MERGE_RULES):
                aggregate = sum(scores.values())
                if aggregate > best_score:
                    best, best_score = group, aggregate
        return best

    def feature_scores(
        self, regression: Regression, group: RegressionGroup, series: _SeriesMemo
    ) -> Dict[str, float]:
        """Similarity features between a regression and a group."""
        members = group.members[:MAX_MEMBERS_COMPARED]
        for one in (regression, *members):
            if id(one) not in series:
                series[id(one)] = one.series_mapping()
        source_series = series[id(regression)]

        time_correlation = 0.0
        text_similarity = 0.0
        for member in members:
            correlation = aligned_pearson(source_series, series[id(member)])
            time_correlation = max(time_correlation, correlation)
            similarity = token_cosine_similarity(
                regression.context.metric_id, member.context.metric_id
            )
            text_similarity = max(text_similarity, similarity)

        stack_overlap = 0.0
        source_subroutine = regression.context.subroutine
        if source_subroutine and self.samples:
            for member in members:
                target = member.context.subroutine
                if not target:
                    continue
                overlap = stack_trace_overlap(self.samples, source_subroutine, target)
                stack_overlap = max(stack_overlap, overlap)

        return {
            "time_correlation": time_correlation,
            "text_similarity": text_similarity,
            "stack_overlap": stack_overlap,
        }
