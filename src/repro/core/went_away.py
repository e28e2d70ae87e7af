"""Went-away detector: transient-issue filtering (§5.2.2).

Transient issues — server failures, load spikes, canary tests — create
change points that recover on their own and must not be reported.  After
three design iterations the paper settled on the predicate::

    NewPattern OR [SignificantRegression AND LastingTrend
                   AND (NOT RegressionGoneAway)]

evaluated on SAX-discretized windows (N=20 buckets, 3% validity) so that
"very different" value patterns after different change points are
recognized as having different causes (the Figure 7 problem: a historic
spike must not mask a true regression at the end of the series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.change_point import ChangePointCandidate
from repro.core.types import DetectionVerdict, FilterReason
from repro.stats.mann_kendall import mann_kendall_test
from repro.stats.robust import NORMALITY_CONSTANT, sorted_median, sorted_percentile
from repro.stats.sax import DEFAULT_BUCKETS, DEFAULT_VALID_FRACTION, sax_encode
from repro.stats.theil_sen import theil_sen
from repro.tsdb.windows import WindowedView

__all__ = ["WentAwayDetector", "WentAwayDiagnosis"]


@dataclass(frozen=True)
class WentAwayDiagnosis:
    """The four predicate terms, for explainability and testing.

    Attributes:
        new_pattern: Post-regression values form a historically unseen
            pattern (and are not *below* all historically valid values).
        significant_regression: Magnitude clears the SAX-letter and
            percentile significance checks.
        lasting_trend: The upward trend persists per Mann-Kendall +
            Theil-Sen against the MAD-derived threshold.
        gone_away: The final data points have recovered to baseline.
        is_true_regression: The combined predicate.
    """

    new_pattern: bool
    significant_regression: bool
    lasting_trend: bool
    gone_away: bool

    @property
    def is_true_regression(self) -> bool:
        return self.new_pattern or (
            self.significant_regression and self.lasting_trend and not self.gone_away
        )


class WentAwayDetector:
    """Implements the §5.2.2 predicate.

    Args:
        n_buckets: SAX bucket count N (paper: 20).
        valid_fraction: SAX bucket-validity fraction X (paper: 3%).
        regression_coefficient: Sensitivity multiplier on the MAD
            threshold (paper default: 1.5).
        new_pattern_fraction: Fraction of post-change points that must
            fall in historically invalid buckets for NewPattern ("most
            letters ... invalid").  The default of 0.65 tolerates
            transients occupying up to ~half the post window (plus the
            few baseline points that always land in sparse tail buckets)
            without firing.
        tail_points: Number of final data points RegressionGoneAway
            examines ("the last few data points").
    """

    def __init__(
        self,
        n_buckets: int = DEFAULT_BUCKETS,
        valid_fraction: float = DEFAULT_VALID_FRACTION,
        regression_coefficient: float = 1.5,
        new_pattern_fraction: float = 0.65,
        tail_points: int = 5,
    ) -> None:
        self.n_buckets = n_buckets
        self.valid_fraction = valid_fraction
        self.regression_coefficient = regression_coefficient
        self.new_pattern_fraction = new_pattern_fraction
        self.tail_points = tail_points

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def diagnose(
        self,
        view: WindowedView,
        candidate: ChangePointCandidate,
    ) -> WentAwayDiagnosis:
        """Evaluate all four predicate terms for a candidate."""
        historic = view.historic
        analysis = view.analysis
        post = np.concatenate([analysis[candidate.index :], view.extended])
        pre = np.concatenate([historic, analysis[: candidate.index]])

        historic_enc = sax_encode(
            historic, self.n_buckets, self.valid_fraction
        )
        grid = (historic_enc.bucket_edges[0], historic_enc.bucket_edges[-1])
        post_enc = sax_encode(post, self.n_buckets, self.valid_fraction, value_range=grid)

        # Each window is sorted once and its medians and percentiles are read
        # off the copy.  Both trend terms measure against the historic median
        # (the robust baseline) and against mad_threshold(historic) around it.
        historic_sorted, post_sorted = np.sort(historic), np.sort(post)
        baseline, spread = None, 0.0
        if historic.size:
            baseline = sorted_median(historic_sorted)
            spread = sorted_median(np.sort(np.abs(historic - baseline)))
        threshold = self.regression_coefficient * spread * NORMALITY_CONSTANT

        new_pattern = self._new_pattern(historic_enc, post_enc, post)
        significant = self._significant_regression(
            historic_enc, post_enc, historic_sorted, pre, post_sorted
        )
        lasting = self._lasting_trend(baseline, threshold, analysis, post, post_sorted)
        gone = self._gone_away(baseline, threshold, post)
        return WentAwayDiagnosis(
            new_pattern=new_pattern,
            significant_regression=significant,
            lasting_trend=lasting,
            gone_away=gone,
        )

    def check(
        self,
        view: WindowedView,
        candidate: ChangePointCandidate,
    ) -> DetectionVerdict:
        """Verdict form of :meth:`diagnose` for pipeline use."""
        diagnosis = self.diagnose(view, candidate)
        if diagnosis.is_true_regression:
            return DetectionVerdict.keep(detail=f"went-away terms: {diagnosis}")
        return DetectionVerdict.drop(
            FilterReason.WENT_AWAY, detail=f"went-away terms: {diagnosis}"
        )

    # ------------------------------------------------------------------
    # Predicate terms
    # ------------------------------------------------------------------

    def _new_pattern(self, historic_enc, post_enc, post: np.ndarray) -> bool:
        """Post-change values form a historically unseen pattern.

        "If most letters in the post-regression SAX string are invalid
        [relative to history], FBDetect treats the post-regression time
        series as a new pattern and reports a regression, unless the
        average value is lower than the lowest valid bucket in historical
        data, indicating no significant cost increase."
        """
        if post.size == 0 or not historic_enc.valid_letters:
            return False
        outside = post_enc.count_outside(historic_enc.valid_letters)
        if outside / post.size < self.new_pattern_fraction:
            return False
        lowest_valid = min(historic_enc.valid_letters)
        lowest_bound = historic_enc.bucket_lower_bound(lowest_valid)
        if float(post.mean()) < lowest_bound:
            return False  # New pattern, but cheaper — an improvement.
        return True

    def _significant_regression(
        self,
        historic_enc,
        post_enc,
        historic_sorted: np.ndarray,
        pre: np.ndarray,
        post_sorted: np.ndarray,
    ) -> bool:
        """Magnitude significance via SAX letters and percentiles.

        The largest post-change letter must reach the largest valid
        pre-change letter, and P90(post) must exceed both P95(historic)
        and P90(previous day) — the previous day approximated by the most
        recent pre-change points.
        """
        if post_sorted.size == 0 or pre.size == 0:
            return False
        if post_enc.max_letter() < historic_enc.max_valid_letter():
            return False
        p90_post = sorted_percentile(post_sorted, 90)
        if historic_sorted.size and p90_post <= sorted_percentile(historic_sorted, 95):
            return False
        prev_day = np.sort(pre[-min(pre.size, max(self.tail_points * 4, 24)):])
        if p90_post <= sorted_percentile(prev_day, 90):
            return False
        return True

    def _lasting_trend(
        self,
        baseline: Optional[float],
        threshold: float,
        analysis: np.ndarray,
        post: np.ndarray,
        post_sorted: np.ndarray,
    ) -> bool:
        """Upward trend persists (Mann-Kendall + Theil-Sen vs MAD threshold).

        Mann-Kendall runs on both the post-regression window and the
        entire analysis window; Theil-Sen measures any trend found, the
        lower slope winning to avoid over-estimation.  The total rise
        implied by the slope is compared against ``coefficient * MAD *
        1.4826`` computed over the historic window (``threshold``), whose
        median is ``baseline`` (``None`` without history).
        """
        if analysis.size < 3:
            return False
        post_mk = mann_kendall_test(post) if post.size >= 3 else None

        # A post window holding flat at an elevated level is the classic
        # lasting step: no decreasing tendency, and the sustained level
        # clears the robust threshold over the historic baseline.  (A
        # pure trend test under-measures steps that land early in the
        # analysis window, where most point pairs lie after the change.)
        if (
            post_mk is not None
            and not post_mk.is_decreasing
            and baseline is not None
            and sorted_median(post_sorted) - baseline >= threshold
        ):
            return True

        slopes = []
        if post_mk is not None and post_mk.is_increasing:
            slopes.append(theil_sen(post).slope)
        analysis_mk = mann_kendall_test(analysis)
        if analysis_mk.is_increasing:
            slopes.append(theil_sen(analysis).slope)
        if not slopes:
            return False
        slope = min(slopes)
        total_rise = slope * analysis.size
        return total_rise >= threshold

    def _gone_away(
        self, baseline: Optional[float], threshold: float, post: np.ndarray
    ) -> bool:
        """The regression vanished in the last few data points.

        The tail must both trend downward (or sit flat at baseline) and
        have recovered to within the MAD threshold of the historic
        median.
        """
        if post.size < self.tail_points or baseline is None:
            return False
        tail = np.sort(post[-self.tail_points :])
        return sorted_median(tail) <= baseline + threshold
