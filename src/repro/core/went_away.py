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

A scan's candidates are judged a block at a time
(:meth:`WentAwayDetector.diagnose_rows`): every sort, median, MAD
threshold, percentile and SAX bucket count is one expression over the
stacked windows, both Mann-Kendall tests of a row come from one compare
of its dense ranks, and Theil-Sen is decided by counting pair slopes,
not computed.  Every term is the one the per-candidate expressions gave
(``tests/_reference_kernels.py`` keeps them); :meth:`~WentAwayDetector.diagnose`
and :meth:`~WentAwayDetector.check` are the one-row view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.change_point import ChangePointCandidate
from repro.core.types import DetectionVerdict, FilterReason
from repro.stats.mann_kendall import (
    SIGNIFICANCE_LEVEL, mann_kendall_scores, mann_kendall_test, pair_plan,
)
from repro.stats.robust import NORMALITY_CONSTANT, sorted_medians, sorted_percentiles
from repro.stats.sax import DEFAULT_BUCKETS, DEFAULT_VALID_FRACTION, sax_encode
from repro.stats.theil_sen import _EXACT_PAIR_LIMIT, theil_sen
from repro.tsdb.windows import WindowedView

__all__ = ["WentAwayDetector", "WentAwayDiagnosis"]

#: Sensitivity multiplier on the MAD threshold (paper default: 1.5).
REGRESSION_COEFFICIENT = 1.5
#: Fraction of post-change points that must fall in historically invalid
#: buckets for NewPattern ("most letters ... invalid").  0.65 tolerates
#: transients occupying up to ~half the post window (plus the few baseline
#: points that always land in sparse tail buckets) without firing.
NEW_PATTERN_FRACTION = 0.65
#: Final data points RegressionGoneAway examines ("the last few data points").
TAIL_POINTS = 5
#: Dense ranks are int16: a row longer than this takes :func:`mann_kendall_test`.
_RANKED_POINTS = int(np.iinfo(np.int16).max)


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

    def verdict(self) -> DetectionVerdict:
        """Keep a true regression; drop the rest as went-away."""
        detail = f"went-away terms: {self}"
        if self.is_true_regression:
            return DetectionVerdict.keep(detail=detail)
        return DetectionVerdict.drop(FilterReason.WENT_AWAY, detail=detail)


class WentAwayDetector:
    """Implements the §5.2.2 predicate on the paper's settings: SAX with
    :data:`~repro.stats.sax.DEFAULT_BUCKETS` buckets (N) and
    :data:`~repro.stats.sax.DEFAULT_VALID_FRACTION` validity (X), and
    this module's :data:`REGRESSION_COEFFICIENT`,
    :data:`NEW_PATTERN_FRACTION` and :data:`TAIL_POINTS`."""

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def diagnose_rows(
        self,
        historic: Sequence[np.ndarray],
        analysis: Sequence[np.ndarray],
        extended: Sequence[np.ndarray],
        indices: Sequence[int],
    ) -> List[WentAwayDiagnosis]:
        """All four predicate terms for a block of candidates.

        Row ``i`` is the change point at ``indices[i]`` of ``analysis[i]``,
        judged against ``historic[i]`` and persisting into ``extended[i]``
        (already oriented: an increase is a regression).  Rows are stacked
        by their three lengths, never padded, and each stack is one pass
        (:meth:`_stack_terms`); a row's terms do not depend on its
        neighbours.  A 2-D array is a sequence of rows.

        Returns:
            One :class:`WentAwayDiagnosis` per row, in row order.
        """
        found: List[Optional[WentAwayDiagnosis]] = [None] * len(indices)
        stacks: Dict[Tuple[int, int, int], List[int]] = {}
        for i in range(len(indices)):
            shape = (len(historic[i]), len(analysis[i]), len(extended[i]))
            stacks.setdefault(shape, []).append(i)
        for widths, members in stacks.items():
            windows = [
                np.array([rows[i] for i in members], dtype=float).reshape(len(members), width)
                for rows, width in zip((historic, analysis, extended), widths)
            ]
            at = np.array([indices[i] for i in members], dtype=np.intp)
            terms = zip(*(term.tolist() for term in self._stack_terms(*windows, at)))
            for i, row in zip(members, terms):
                found[i] = WentAwayDiagnosis(*row)
        return found

    def diagnose(
        self,
        view: WindowedView,
        candidate: ChangePointCandidate,
    ) -> WentAwayDiagnosis:
        """Evaluate all four predicate terms for a candidate: the one-row
        view of :meth:`diagnose_rows`."""
        return self.diagnose_rows(
            [view.historic], [view.analysis], [view.extended], [candidate.index]
        )[0]

    def check(
        self,
        view: WindowedView,
        candidate: ChangePointCandidate,
    ) -> DetectionVerdict:
        """Verdict form of :meth:`diagnose`."""
        return self.diagnose(view, candidate).verdict()

    # ------------------------------------------------------------------
    # One stack of same-shaped rows
    # ------------------------------------------------------------------

    def _stack_terms(
        self, historic: np.ndarray, analysis: np.ndarray, extended: np.ndarray, at: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(new_pattern, significant, lasting, gone_away)`` per row.

        Each term is the per-candidate expression of the paper's
        predicate, written over the stack: a post window (``analysis[at:]``
        then ``extended``) has a per-row length, so it is the row with its
        pre-change columns set to +inf, sorted, and read at its own
        length; a NaN sorts past the padding, so the last column still
        says whether a window holds one.  Rows holding a NaN or an
        infinity, and rows too long to rank in int16, take
        :func:`~repro.stats.sax.sax_encode` and
        :func:`~repro.stats.mann_kendall.mann_kendall_test` per row.
        """
        k, nh = historic.shape
        na = analysis.shape[1]
        tail = np.concatenate([analysis, extended], axis=1)  # what follows history
        m = tail.shape[1]
        n_post, n_pre = m - at, nh + at
        in_post = np.arange(m) >= at[:, None]
        # A NaN or an infinity anywhere leaves a row's sum not finite.
        exact = ~np.isfinite(historic.sum(axis=1) + tail.sum(axis=1)) | (m > _RANKED_POINTS)

        with np.errstate(all="ignore"):  # inf - inf in a lerp; NaN rows
            # The sorted windows: history, the post window, the previous day
            # (the last pre-change points) and the last few points.
            historic_sorted = np.sort(historic, axis=1)
            post_sorted = np.sort(np.where(in_post, tail, np.inf), axis=1)
            span = max(TAIL_POINTS * 4, 24)
            skip = max(nh - span, 0)  # history before the longest previous day
            prior = np.concatenate([historic[:, skip:], analysis], axis=1)
            columns = (n_pre - span - skip)[:, None] + np.arange(span)
            width = prior.shape[1]
            picked = np.inf  # no pre-change point at all: every column pads
            if width:
                picked = prior.ravel()[np.arange(0, k * width, width)[:, None] + np.maximum(columns, 0)]
            prev_day = np.sort(np.where(columns >= 0, picked, np.inf), axis=1)
            last = TAIL_POINTS
            recent, n_recent = post_sorted, n_post  # as post[-0:] reads it
            if 0 < last <= m:
                recent, n_recent = np.sort(tail[:, m - last :], axis=1), last

            # Both trend terms measure against the historic median (the
            # robust baseline) and the MAD threshold around it.
            baseline = sorted_medians(historic_sorted, nh)
            spread = sorted_medians(np.sort(np.abs(historic - baseline[:, None]), axis=1), nh)
            p95_historic = sorted_percentiles(historic_sorted, nh, 95)
            post_median = sorted_medians(post_sorted, n_post)
            p90_post = sorted_percentiles(post_sorted, n_post, 90)
            p90_prev = sorted_percentiles(prev_day, np.minimum(n_pre, span), 90)
            recent_median = sorted_medians(recent, n_recent)
            threshold = np.zeros(k)  # no history: the MAD of nothing is 0
            if nh:
                threshold = REGRESSION_COEFFICIENT * spread * NORMALITY_CONSTANT

            # SignificantRegression: the largest post letter reaches the
            # largest valid historic one, and P90(post) exceeds P95(historic)
            # and P90(previous day).
            letters = self._letters(historic, historic_sorted, tail, at, post_sorted, exact)
            any_valid, lowest_bound, max_valid, outside, max_letter = letters
            significant = (
                (n_post > 0)
                & (n_pre > 0)
                & ~(max_letter < max_valid)
                & ~((nh > 0) & (p90_post <= p95_historic))
                & ~(p90_post <= p90_prev)
            )

            # NewPattern: most post letters fall outside the historically
            # valid buckets, unless the post mean sits below the lowest
            # valid one (a cheaper new pattern: an improvement).  The mean
            # is exact per row, and only read where it decides.
            new_pattern = np.zeros(k, dtype=bool)
            unseen = ~(outside / np.maximum(n_post, 1) < NEW_PATTERN_FRACTION)
            for i in np.flatnonzero((n_post > 0) & any_valid & unseen).tolist():
                new_pattern[i] = not tail[i, at[i] :].mean() < lowest_bound[i]

            # LastingTrend: a post window holding flat at an elevated level
            # (no decreasing tendency, median over the threshold) is the
            # classic lasting step; otherwise every rising window's
            # Theil-Sen slope must clear the threshold over the analysis span.
            lasting = np.zeros(k, dtype=bool)
            if na >= 3:
                post_trend, analysis_trend = self._trends(tail, at, na, in_post, exact)
                lasting = (
                    (n_post >= 3)
                    & (post_trend >= 0)
                    & (nh > 0)
                    & (post_median - baseline >= threshold)
                )
                rising = ~lasting & ((post_trend > 0) | (analysis_trend > 0))
                for i in np.flatnonzero(rising).tolist():
                    lasting[i] = _slopes_clear(
                        tail[i], int(at[i]), na, post_trend[i] > 0, analysis_trend[i] > 0,
                        float(threshold[i]),
                    )

            # RegressionGoneAway: the last few points are back within the
            # threshold of the historic median.
            gone = (n_post >= max(last, 1)) & (nh > 0) & (recent_median <= baseline + threshold)
        return new_pattern, significant, lasting, gone

    @staticmethod
    def _letters(
        historic: np.ndarray,
        historic_sorted: np.ndarray,
        tail: np.ndarray,
        at: np.ndarray,
        post_sorted: np.ndarray,
        exact: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """The SAX facts the predicate reads, per row.

        ``(any_valid, lowest_bound, max_valid, outside, max_letter)``: whether
        any historic bucket is valid, the lower edge of the lowest valid
        one, the highest valid letter (-1: none), how many post points fall
        outside the valid buckets, and the highest post letter (-1: empty).
        The post window is encoded on the historic grid, whose edges are
        those of the historic encoding, so both are bucket counts off the
        sorted rows, and both come from one stable merge with the edges.
        """
        k, nh = historic.shape
        buckets = DEFAULT_BUCKETS
        n_post = tail.shape[1] - at
        if not nh:  # no history, no valid letter: the letters decide nothing
            none = np.full(k, -1)
            return np.zeros(k, dtype=bool), np.zeros(k), none, np.zeros(k, dtype=np.intp), none
        # The sorted ends are the extremes of a finite row; a row whose step
        # is zero or overflows (np.linspace's other branch) is encoded as today.
        lo, hi = historic_sorted[:, 0], historic_sorted[:, -1]
        hi = np.where(hi <= lo, lo + 1.0, hi)
        step = (hi - lo) / buckets
        exact = exact | ~((step > 0) & (step < np.inf))
        edges = np.arange(buckets + 1.0) * step[:, None] + lo[:, None]
        edges[:, -1] = hi

        # Bucket counts of history (rows :k) and of the post window (rows
        # k:), off one stable merge with the edges; -inf and +inf stand for
        # the outer edges, so the +inf padding falls outside every bucket.
        values = np.full((2 * k, max(nh, tail.shape[1])), np.inf)
        values[:k, :nh] = historic_sorted
        values[k:, : tail.shape[1]] = post_sorted
        bounds = np.concatenate([edges, edges])
        bounds[:, 0], bounds[:, -1] = -np.inf, np.inf
        merged = np.argsort(np.concatenate([bounds, values], axis=1), axis=1, kind="stable")
        below = np.nonzero(merged <= buckets)[1].reshape(2 * k, buckets + 1)
        counts = np.diff(below - np.arange(buckets + 1), axis=1)
        valid = counts[:k] >= max(1, int(np.ceil(DEFAULT_VALID_FRACTION * nh)))
        post_counts = counts[k:]

        any_valid = valid.any(axis=1)
        lowest_bound = edges[np.arange(k), valid.argmax(axis=1)]
        max_valid = np.where(any_valid, buckets - 1 - valid[:, ::-1].argmax(axis=1), -1)
        outside = (post_counts * ~valid).sum(axis=1)
        reached = buckets - 1 - (post_counts[:, ::-1] > 0).argmax(axis=1)
        max_letter = np.where(n_post > 0, reached, -1)
        for i in np.flatnonzero(exact).tolist():
            historic_enc = sax_encode(historic[i], buckets, DEFAULT_VALID_FRACTION)
            grid = (historic_enc.bucket_edges[0], historic_enc.bucket_edges[-1])
            post_enc = sax_encode(
                tail[i, at[i] :], buckets, DEFAULT_VALID_FRACTION, value_range=grid
            )
            valid_letters = historic_enc.valid_letters
            any_valid[i] = bool(valid_letters)
            if valid_letters:
                lowest_bound[i] = historic_enc.bucket_lower_bound(min(valid_letters))
            max_valid[i] = historic_enc.max_valid_letter()
            outside[i] = post_enc.count_outside(valid_letters)
            max_letter[i] = post_enc.max_letter()
        return any_valid, lowest_bound, max_valid, outside, max_letter

    @staticmethod
    def _trends(
        tail: np.ndarray, at: np.ndarray, na: int, in_post: np.ndarray, exact: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mann-Kendall trend (+1, -1, 0) of each row's post and analysis window.

        Both tests come from one compare of the row's int16 *dense* ranks
        over analysis + extended (equal values share a rank, so ``S`` and
        the tie counts are the integers the float compare gives): the post
        test is the block ``[at:, at:]`` of the pair matrix, the analysis
        test ``[:na, :na]``.  A post window under 3 points has no trend.
        """
        k, m = tail.shape
        n_post = m - at
        post, analysis = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
        if m <= _RANKED_POINTS:
            start = np.arange(0, k * m, m)[:, None]
            order = np.argsort(tail, axis=1)
            order += start
            ordered = tail.ravel()[order]
            fresh = np.empty((k, m), dtype=np.int16)
            fresh[:, 0] = 0
            np.not_equal(ordered[:, 1:], ordered[:, :-1], out=fresh[:, 1:])
            dense = np.cumsum(fresh, axis=1, dtype=np.int16)
            ranks = np.empty(k * m, dtype=np.int16)
            ranks[order] = dense
            ranks = ranks.reshape(k, m)

            # Groups of tied values per window (post rows, then analysis
            # rows), off one bincount; a row whose last dense rank is m - 1
            # has none.
            ties = np.zeros((2 * k, m), dtype=np.int64)
            if (dense[:, -1] < m - 1).any():
                keys = ranks + start
                ties = np.bincount(
                    np.concatenate([keys[in_post], keys[:, :na].ravel() + k * m]),
                    minlength=2 * k * m,
                ).reshape(2 * k, m)

            upper = pair_plan(m)[0]
            concordant = np.zeros(2 * k, dtype=np.int64)
            for i, j in enumerate(at.tolist()):
                later = ranks[i, None, :] > ranks[i, :, None]
                later &= upper
                concordant[i] = np.count_nonzero(later[j:, j:])
                concordant[k + i] = np.count_nonzero(later[:na, :na])

            n = np.concatenate([n_post, np.full(k, na)])
            tied = ties * (ties - 1)
            s = 2 * concordant - (n * (n - 1) - tied.sum(axis=1)) // 2
            z, p_value = mann_kendall_scores(s, n, (tied * (2 * ties + 5)).sum(axis=1) * 1.0)
            trend = np.sign(z).astype(int) * (p_value < SIGNIFICANCE_LEVEL)
            post, analysis = trend[:k] * (n_post >= 3), trend[k:]
        for i in np.flatnonzero(exact).tolist():
            post[i] = _direction(mann_kendall_test(tail[i, at[i] :])) if n_post[i] >= 3 else 0
            analysis[i] = _direction(mann_kendall_test(tail[i, :na]))
        return post, analysis


def _direction(result) -> int:
    return 1 if result.is_increasing else -1 if result.is_decreasing else 0


def _slopes_clear(
    tail: np.ndarray, at: int, na: int, post: bool, analysis: bool, threshold: float
) -> bool:
    """``min(slopes) * na >= threshold`` over the Theil-Sen slopes of the
    rising windows (``tail[at:]`` if ``post``, ``tail[:na]`` if ``analysis``).

    ``fl(x * na) >= threshold`` is monotone in ``x``, so the slopes that
    clear it are the top of their sorted order: the median clears it when
    the count of clearing pair slopes reaches its rank.  Only an even
    count landing exactly on the middle pair needs the median itself, and
    takes the exact :func:`~repro.stats.theil_sen.theil_sen`, as does a
    window past its exact-pair limit.
    """
    lo, hi = (0 if analysis else at), (tail.size if post else na)
    window = tail[lo:hi]
    blocks = ([(at - lo, hi - lo)] if post else []) + ([(0, na)] if analysis else [])
    if window.size > _EXACT_PAIR_LIMIT:
        return all(theil_sen(window[a:b]).slope * na >= threshold for a, b in blocks)
    # Pair (j, i) has the slope of pair (i, j), bit for bit (IEEE negation is
    # exact both in the difference and in the quotient), and the diagonal's
    # 0 / 0 clears nothing: a block holds every pair slope twice.
    slopes = window[None, :] - window[:, None]
    np.divide(slopes, pair_plan(window.size)[1], out=slopes)
    np.multiply(slopes, na, out=slopes)
    clear = slopes >= threshold
    for a, b in blocks:
        pairs = (b - a) * (b - a - 1) // 2
        count, middle = np.count_nonzero(clear[a:b, a:b]) // 2, pairs // 2
        if pairs % 2:
            passed = count >= pairs - middle
        elif count != middle:
            passed = count > middle
        else:
            passed = theil_sen(window[a:b]).slope * na >= threshold
        if not passed:
            return False
    return True
