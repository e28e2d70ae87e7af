"""Root-cause analysis (§5.6).

The root cause of a regression is the specific code or configuration
change causing it.  FBDetect generates candidates from changes deployed
immediately before the regression and ranks them on weighted factors:

1. *Subroutine gCPU attribution* — the fraction of the regression's gCPU
   change attributable to stack samples involving subroutines the change
   modified (the Table 2 worked example: L/R = 0.04/0.05 = 80%).
2. *Text similarity* — TF-IDF cosine between the regression context
   (metric name, subroutine, stack frames) and the change context
   (title, summary, touched subroutines).
3. *Time-series correlation* — Pearson correlation between optional
   "setup" metric series (e.g. which algorithm serves requests) tied to
   a change and the regression's series.

Candidates are suggested only when the top confidence clears a bar;
otherwise FBDetect appropriately declines to guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.types import Regression, RootCauseScore
from repro.fleet.changes import ChangeLog, CodeChange
from repro.profiling.stacktrace import StackTrace
from repro.stats.correlation import aligned_pearson
from repro.text.similarity import text_cosine_similarity

__all__ = ["RootCauseAnalyzer", "RootCauseCandidate", "gcpu_attribution"]

#: How long before the change point to harvest candidates (seconds).
LOOKBACK = 6 * 3600.0
#: Weights of the three factors in a candidate's score.
FACTOR_WEIGHTS = {"gcpu_attribution": 0.5, "text_similarity": 0.3, "time_correlation": 0.2}
#: Minimum top score to suggest anything.
CONFIDENCE_THRESHOLD = 0.25
#: Number of candidates reported (the paper judges the top 3).
TOP_K = 3


@dataclass(frozen=True)
class RootCauseCandidate:
    """A change under consideration with its evidence."""

    change: CodeChange
    score: float
    factors: Dict[str, float]


def gcpu_attribution(
    samples_before: Sequence[StackTrace],
    samples_after: Sequence[StackTrace],
    regressed: str,
    modified: Sequence[str],
) -> float:
    """Fraction L/R of a gCPU regression attributable to ``modified``.

    R is the gCPU change of ``regressed`` between the two sample sets;
    L is the gCPU change computed over only those samples (containing
    ``regressed``) that also involve a modified subroutine.  Matches the
    Table 2 worked example exactly.

    Returns:
        L/R clipped to [0, 1]; 0.0 when R is non-positive (no regression
        to attribute).
    """
    modified_set = set(modified)

    def weights(samples: Sequence[StackTrace]) -> tuple:
        total = regressed_weight = attributed_weight = 0.0
        for trace in samples:
            total += trace.weight
            if regressed in trace.names:
                regressed_weight += trace.weight
                if trace.names & modified_set:
                    attributed_weight += trace.weight
        return total, regressed_weight, attributed_weight

    total_b, reg_b, attr_b = weights(samples_before)
    total_a, reg_a, attr_a = weights(samples_after)
    if total_b == 0 or total_a == 0:
        return 0.0
    r = reg_a / total_a - reg_b / total_b
    if r <= 0:
        return 0.0
    l = attr_a / total_a - attr_b / total_b
    return float(np.clip(l / r, 0.0, 1.0))


class RootCauseAnalyzer:
    """Ranks candidate changes for a regression.

    Args:
        setup_series: Optional ``{change_id: {timestamp: value}}`` setup
            metrics for the time-correlation factor.
    """

    def __init__(
        self, setup_series: Optional[Mapping[str, Mapping[float, float]]] = None
    ) -> None:
        self.setup_series = dict(setup_series or {})

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def analyze(
        self,
        regression: Regression,
        change_log: ChangeLog,
        samples_before: Sequence[StackTrace] = (),
        samples_after: Sequence[StackTrace] = (),
    ) -> List[RootCauseCandidate]:
        """Ranked root-cause candidates (possibly empty) among the changes
        ``change_log`` deployed shortly before the regression, with stack
        samples from before and after it for the gCPU attribution factor.

        An empty list means FBDetect's confidence was too low to suggest
        a root cause — the appropriate outcome for regressions caused by
        diffuse feature releases or un-exported changes (§6.3).
        """
        candidates = change_log.deployed_between(
            regression.change_time - LOOKBACK, regression.change_time + 1.0
        )
        if not candidates:
            return []

        scored = [
            self._score(regression, change, samples_before, samples_after)
            for change in candidates
        ]
        scored.sort(key=lambda c: -c.score)
        if not scored or scored[0].score < CONFIDENCE_THRESHOLD:
            return []
        top = scored[:TOP_K]
        regression.root_cause_candidates = [
            RootCauseScore(change_id=c.change.change_id, score=c.score, factors=c.factors)
            for c in top
        ]
        return top

    # ------------------------------------------------------------------
    # Factors
    # ------------------------------------------------------------------

    def _score(
        self, regression: Regression, change: CodeChange,
        before: Sequence[StackTrace], after: Sequence[StackTrace],
    ) -> RootCauseCandidate:
        subroutine = regression.context.subroutine
        attributed = subroutine is not None and len(before) > 0
        factors = {
            "gcpu_attribution": (
                gcpu_attribution(before, after, subroutine, change.modified_subroutines)
                if attributed else 0.0
            ),
            "text_similarity": self._text_factor(regression, change),
            "time_correlation": self._correlation_factor(regression, change),
        }
        score = sum(FACTOR_WEIGHTS[name] * value for name, value in factors.items())
        # Direct modification of the regressed subroutine is itself strong
        # code-and-stack-trace evidence ("changes that modify downstream
        # subroutines transitively invoked ... are flagged as suspects").
        if subroutine and self._modifies_stack(subroutine, change, after):
            score = min(1.0, score + 0.25)
        return RootCauseCandidate(change=change, score=float(score), factors=factors)

    @staticmethod
    def _modifies_stack(
        target: str, change: CodeChange, samples_after: Sequence[StackTrace]
    ) -> bool:
        """Change touches the regressed subroutine or one it invokes."""
        modified = set(change.modified_subroutines)
        if target in modified:
            return True
        for trace in samples_after:
            if not trace.contains(target):
                continue
            if set(trace.callees_of(target)) & modified:
                return True
        return False

    def _text_factor(self, regression: Regression, change: CodeChange) -> float:
        regression_text = " ".join(
            filter(
                None,
                [
                    regression.context.metric_id,
                    regression.context.metric_name,
                    regression.context.subroutine,
                    regression.context.endpoint,
                ],
            )
        )
        change_text = " ".join(
            filter(
                None,
                [change.title, change.summary, " ".join(change.modified_subroutines)],
            )
        )
        if not regression_text or not change_text:
            return 0.0
        return text_cosine_similarity(regression_text, change_text)

    def _correlation_factor(self, regression: Regression, change: CodeChange) -> float:
        series = self.setup_series.get(change.change_id)
        if not series:
            return 0.0
        correlation = aligned_pearson(regression.series_mapping(), series)
        return max(0.0, correlation)
