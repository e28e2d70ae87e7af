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
analysis + extended samples — so the groups a pipeline carries from run
to run (and in every pickle of it) stay small however many regressions
merge into them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.types import DetectionVerdict, FilterReason, MetricContext, Regression
from repro.profiling.gcpu import stack_trace_overlap
from repro.profiling.stacktrace import StackTrace
from repro.stats.correlation import aligned_pearson
from repro.text.similarity import token_cosine_similarity

__all__ = ["MergeRule", "PairwiseDedup"]

#: ``id(member) -> series_mapping()``, each built once per ``process()``
#: call however many comparisons read it.
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
#: Cap on the members a group keeps and compares, to bound the pairwise
#: cost: the first ones merged.
MAX_MEMBERS_COMPARED = 10


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

    def series_mapping(self) -> Dict[float, float]:
        """``{time: value}``, as :meth:`Regression.series_mapping`."""
        return dict(zip(self.times.tolist(), self.values.tolist()))


@dataclass
class _Group:
    """One pairwise group: its id and its first members."""

    group_id: int
    members: List[_Member] = field(default_factory=list)


class PairwiseDedup:
    """Pairwise-comparison deduplication against persistent groups.

    Args:
        samples: Stack-trace history for the stack-overlap feature.
    """

    def __init__(self, samples: Sequence[StackTrace] = ()) -> None:
        self.samples = list(samples)
        self.groups: List[_Group] = []
        self._next_group_id = 1_000_000  # distinct from SOMDedup ids

    def process(self, regressions: Sequence[Regression]) -> None:
        """Merge each new regression into :attr:`groups` or open a new one.

        Regressions merged into an existing group receive a
        PAIRWISE_DUPLICATE verdict; group openers a keep verdict.
        """
        series: _SeriesMemo = {}
        # All held to the end of the call: the memo is keyed by id().
        members = [_Member.of(regression) for regression in regressions]
        for regression, member in zip(regressions, members):
            group = self._best_group(member, series)
            if group is not None:
                regression.representative = False
                regression.record(
                    DetectionVerdict.drop(
                        FilterReason.PAIRWISE_DUPLICATE,
                        detail=f"merged into group {group.group_id}",
                    )
                )
            else:
                group = _Group(group_id=self._next_group_id)
                self._next_group_id += 1
                regression.record(DetectionVerdict.keep(detail="PairwiseDedup new group"))
                self.groups.append(group)
            regression.group_id = group.group_id
            if len(group.members) < MAX_MEMBERS_COMPARED:
                group.members.append(member)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _best_group(self, source: _Member, series: _SeriesMemo) -> Optional[_Group]:
        """The matching group with the highest aggregate score, if any."""
        best: Optional[_Group] = None
        best_score = -np.inf
        for group in self.groups:
            scores = self.feature_scores(source, group, series)
            if any(rule.matches(scores) for rule in MERGE_RULES):
                aggregate = sum(scores.values())
                if aggregate > best_score:
                    best, best_score = group, aggregate
        return best

    def feature_scores(
        self, source: _Member, group: _Group, series: _SeriesMemo
    ) -> Dict[str, float]:
        """Similarity features between a regression and a group."""
        members = group.members
        for one in (source, *members):
            if id(one) not in series:
                series[id(one)] = one.series_mapping()
        source_series = series[id(source)]

        time_correlation = 0.0
        text_similarity = 0.0
        for member in members:
            correlation = aligned_pearson(source_series, series[id(member)])
            time_correlation = max(time_correlation, correlation)
            similarity = token_cosine_similarity(
                source.context.metric_id, member.context.metric_id
            )
            text_similarity = max(text_similarity, similarity)

        stack_overlap = 0.0
        source_subroutine = source.context.subroutine
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
