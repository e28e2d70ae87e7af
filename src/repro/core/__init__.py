"""FBDetect's core: the regression-detection pipeline (Figure 6).

Stages, in execution order for the short-term path:

1. :mod:`repro.core.change_point` — CUSUM+EM change-point detection with
   likelihood-ratio validation (§5.2.1).
2. :mod:`repro.core.went_away` — transient-issue filtering (§5.2.2).
3. :mod:`repro.core.seasonality` — STL-based seasonality filtering (§5.2.3).
4. :mod:`repro.core.same_regression` — SameRegressionMerger for the same
   regression surfacing in overlapping analysis windows (Table 3).
5. :mod:`repro.core.dedup_som` — fast SOM-based deduplication (§5.5.1).
6. :mod:`repro.core.cost_shift` — cost-shift false-positive filtering (§5.4).
7. :mod:`repro.core.dedup_pairwise` — thorough pairwise deduplication (§5.5.2).
8. :mod:`repro.core.root_cause` — root-cause candidate ranking (§5.6).

The long-term path (:mod:`repro.core.long_term`, §5.3) decomposes first
and skips the went-away detector.  :mod:`repro.core.pipeline` wires both
paths together and keeps the per-stage funnel counts of Table 3;
:mod:`repro.core.detector` is the top-level ``FBDetect`` facade.
"""

from repro.core.change_point import ChangePointDetector
from repro.core.cost_shift import CostDomain, CostShiftDetector
from repro.core.dedup_pairwise import MergeRule, PairwiseDedup
from repro.core.dedup_som import SOMDedup
from repro.core.detector import FBDetect
from repro.core.importance import importance_score
from repro.core.incremental import IncrementalScanCache
from repro.core.long_term import LongTermDetector
from repro.core.pipeline import DetectionPipeline, FunnelCounters
from repro.core.root_cause import RootCauseAnalyzer, RootCauseCandidate
from repro.core.same_regression import SameRegressionMerger
from repro.core.seasonality import SeasonalityDetector
from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MetricContext,
    PipelineResult,
    Regression,
    RegressionGroup,
    RegressionKind,
)
from repro.core.went_away import WentAwayDetector

__all__ = [
    "ChangePointDetector",
    "CostDomain",
    "CostShiftDetector",
    "DetectionPipeline",
    "DetectionVerdict",
    "FBDetect",
    "FilterReason",
    "FunnelCounters",
    "IncrementalScanCache",
    "LongTermDetector",
    "MergeRule",
    "MetricContext",
    "PairwiseDedup",
    "PipelineResult",
    "Regression",
    "RegressionGroup",
    "RegressionKind",
    "RootCauseAnalyzer",
    "RootCauseCandidate",
    "SOMDedup",
    "SameRegressionMerger",
    "SeasonalityDetector",
    "importance_score",
]
