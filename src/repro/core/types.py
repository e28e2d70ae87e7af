"""Shared types of the detection pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.incremental import IncrementalScanCache
from repro.fleet.changes import ChangeLog
from repro.obs.spans import FunnelCounters, RunTrace
from repro.profiling.stacktrace import StackTrace
from repro.tsdb.windows import WindowedView

__all__ = [
    "RegressionKind",
    "FilterReason",
    "DetectionVerdict",
    "MetricContext",
    "Regression",
    "RegressionGroup",
    "PipelineResult",
    "ScanContext",
    "MonitorState",
]


class RegressionKind(str, enum.Enum):
    """Which detection path produced a regression."""

    SHORT_TERM = "short_term"
    LONG_TERM = "long_term"


class FilterReason(str, enum.Enum):
    """Why a candidate was filtered as a false positive (Table 3 stages)."""

    NOT_SIGNIFICANT = "not_significant"
    WENT_AWAY = "went_away"
    SEASONALITY = "seasonality"
    BELOW_THRESHOLD = "below_threshold"
    SAME_REGRESSION = "same_regression"
    SOM_DUPLICATE = "som_duplicate"
    COST_SHIFT = "cost_shift"
    PAIRWISE_DUPLICATE = "pairwise_duplicate"
    PLANNED_CHANGE = "planned_change"


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of one filter stage for one candidate.

    Attributes:
        passed: ``True`` when the candidate survives the stage.
        reason: The filter reason when it does not.
        detail: Free-form diagnostics for the incident report.
    """

    passed: bool
    reason: Optional[FilterReason] = None
    detail: str = ""

    @classmethod
    def keep(cls, detail: str = "") -> "DetectionVerdict":
        return cls(passed=True, detail=detail)

    @classmethod
    def drop(cls, reason: FilterReason, detail: str = "") -> "DetectionVerdict":
        return cls(passed=False, reason=reason, detail=detail)


@dataclass(frozen=True)
class MetricContext:
    """Identity and metadata of the series under analysis.

    Attributes:
        metric_id: Concatenation of subroutine name and metric name — the
            SOMDedup clustering feature of §5.5.1 (e.g.
            ``"svc::Ranker::score.gcpu"``).
        service: Owning service.
        metric_name: Metric type (``"gcpu"``, ``"throughput"`` ...).
        subroutine: Subroutine for subroutine-level metrics.
        endpoint: Endpoint for endpoint-level metrics.
        metadata: ``SetFrameMetadata`` annotation, if any.
    """

    metric_id: str
    service: str = ""
    metric_name: str = ""
    subroutine: Optional[str] = None
    endpoint: Optional[str] = None
    metadata: Optional[str] = None

    @classmethod
    def from_tags(cls, name: str, tags: Dict[str, str]) -> "MetricContext":
        """Build a context from a TSDB series name and tags."""
        return cls(
            metric_id=name,
            service=tags.get("service", ""),
            metric_name=tags.get("metric", ""),
            subroutine=tags.get("subroutine"),
            endpoint=tags.get("endpoint"),
            metadata=tags.get("metadata"),
        )


@dataclass
class Regression:
    """A detected (candidate) regression.

    Attributes:
        context: Which metric regressed.
        kind: Short- or long-term detection path.
        change_index: Index of the change point within the analysis
            window (short-term) or the full deseasonalized series
            (long-term).
        change_time: Simulation/wall time of the change point.
        mean_before: Baseline mean.
        mean_after: Post-change mean.
        window: The windowed view the detection ran on.
        detected_at: The pipeline run's reference time ("now").
        verdicts: Filter-stage audit trail.
        features: Numeric features attached by dedup stages.
        group_id: Deduplication group, set by SOMDedup/PairwiseDedup.
        representative: Whether this regression represents its group.
        root_cause_candidates: Ranked candidate change ids with scores,
            filled by root-cause analysis.
    """

    context: MetricContext
    kind: RegressionKind
    change_index: int
    change_time: float
    mean_before: float
    mean_after: float
    window: WindowedView
    detected_at: float = 0.0
    verdicts: List[DetectionVerdict] = field(default_factory=list)
    features: Dict[str, float] = field(default_factory=dict)
    group_id: Optional[int] = None
    representative: bool = True
    root_cause_candidates: List["RootCauseScore"] = field(default_factory=list)

    @property
    def magnitude(self) -> float:
        """Absolute regression magnitude (mean shift)."""
        return self.mean_after - self.mean_before

    @property
    def relative_magnitude(self) -> float:
        """Magnitude relative to the baseline mean (inf when baseline 0)."""
        if self.mean_before == 0:
            return float("inf") if self.magnitude != 0 else 0.0
        return self.magnitude / abs(self.mean_before)

    def record(self, verdict: DetectionVerdict) -> None:
        self.verdicts.append(verdict)


@dataclass(frozen=True)
class RootCauseScore:
    """One ranked root-cause candidate.

    Attributes:
        change_id: The candidate change.
        score: Combined relevance in [0, 1].
        factors: Per-factor breakdown (gcpu_attribution, text_similarity,
            time_correlation).
    """

    change_id: str
    score: float
    factors: Dict[str, float] = field(default_factory=dict)


@dataclass
class RegressionGroup:
    """A deduplicated group of regressions sharing a likely root cause.

    Attributes:
        group_id: Stable id.
        members: All regressions merged into the group.
        representative: The member shown to developers (highest
            ImportanceScore).
    """

    group_id: int
    members: List[Regression] = field(default_factory=list)
    representative: Optional[Regression] = None

    def add(self, regression: Regression) -> None:
        regression.group_id = self.group_id
        self.members.append(regression)


@dataclass
class PipelineResult:
    """Outcome of one detection run.

    Attributes:
        reported: Final regressions presented to developers (group
            representatives after all filtering and deduplication).
        all_candidates: Every change-point candidate turned regression
            (including later-filtered ones, each carrying its verdicts).
        now: The run's reference time.
        trace: The run's ledger — one span per funnel stage, plus the
            run-level counts and block timings under their metric names.
    """

    reported: List[Regression]
    all_candidates: List[Regression]
    now: float
    trace: RunTrace

    @property
    def funnel(self) -> FunnelCounters:
        """Per-stage survivor counts, read off the ledger's spans."""
        return FunnelCounters({span.stage: span.outputs for span in self.trace.spans})


@dataclass(frozen=True)
class ScanContext:
    """What a scan reads beside the TSDB, handed to each run.

    Attributes:
        samples: Stack-trace samples (cost shift, dedup, root cause).
        change_log: Deployed changes (root cause, SOM features, commit
            cost domains).
    """

    samples: Tuple[StackTrace, ...] = ()
    change_log: ChangeLog = field(default_factory=ChangeLog)


@dataclass
class MonitorState:
    """What one monitor carries from a scan to the next, as plain data.

    A scan mutates it in place; a checkpoint or a worker's answer
    pickles it beside the monitor's configuration, never a detector.

    Attributes:
        cache: The incremental screen's anchors (``None``: screen off).
        stale: Series evicted for staleness, re-judged every scan.
        seen: The same-regression ledger: metric id -> ``(change time,
            magnitude)`` of each regression already let through, less
            what a retention cut made unmatchable.
        som_groups: SOM groups opened so far (the next group's id).
        pairwise_groups: PairwiseDedup's groups in opening order, each
            the list of its first members.
    """

    cache: Optional[IncrementalScanCache] = None
    stale: Set[str] = field(default_factory=set)
    seen: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    som_groups: int = 0
    pairwise_groups: list = field(default_factory=list)
