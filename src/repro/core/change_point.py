"""Change-point detector (§5.2.1).

Applies CUSUM and EM iteratively to converge on the change point with the
maximum likelihood of having different means before and after, then
validates the candidate with a likelihood-ratio chi-squared test at
significance 0.01.  Detection runs over the analysis window, using the
historic window only downstream (went-away, thresholds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.cusum import cusum_split_rows

# ``em_mean_split`` is not called here: the end-to-end benchmark's tracer
# resolves it on this module (``benchmarks/e2e/layers.py``, ``stats.em``).
from repro.stats.em import em_mean_split, em_split_rows  # noqa: F401
from repro.stats.hypothesis import likelihood_ratio_test, lrt_screen_rows

__all__ = ["ChangePointCandidate", "ChangePointDetector"]


@dataclass(frozen=True)
class ChangePointCandidate:
    """A validated change point within a window.

    Attributes:
        index: First index of the post-change segment.
        mean_before: Mean of the pre-change segment.
        mean_after: Mean of the post-change segment.
        p_value: Likelihood-ratio test p-value.
    """

    index: int
    mean_before: float
    mean_after: float
    p_value: float

    @property
    def magnitude(self) -> float:
        return self.mean_after - self.mean_before


#: Minimum points on each side of a change point.
MIN_SEGMENT = 3


class ChangePointDetector:
    """CUSUM + EM iterative change-point detection with LRT validation.

    Args:
        significance_level: LRT rejection level (paper: 0.01).
    """

    def __init__(self, significance_level: float = 0.01) -> None:
        if not 0 < significance_level < 1:
            raise ValueError("significance_level must be in (0, 1)")
        self.significance_level = significance_level
        self.min_segment = MIN_SEGMENT

    def detect_rows(
        self, rows: np.ndarray, increases_only: bool = False
    ) -> Tuple[List[Optional[ChangePointCandidate]], int]:
        """:meth:`detect` over every row of a ``(k, n)`` matrix at once.

        The CUSUM proposal and the EM sweep are row-wise array
        expressions that reduce each row in the order the 1-D call does,
        so their indices are bit-for-bit the one-row ones.  The LRT's
        two-pass sums have a per-row length and cannot be stacked
        bit-for-bit; :func:`~repro.stats.hypothesis.lrt_screen_rows`
        clears the rows that cannot be significant (screened statistic
        below the critical value by more than ``LRT_SCREEN_MARGIN``,
        1e-6, against a rounding error under 2.4e-7) and every other row
        takes the exact :func:`~repro.stats.hypothesis.likelihood_ratio_test`
        and segment means — so every candidate, and every float it
        carries, is computed by the same expressions whatever the batch.

        Args:
            rows: C-contiguous float matrix, one series per row.
            increases_only: Report only mean increases (:meth:`detect_increase`).

        Returns:
            ``(candidates, exact)``: one validated candidate or ``None``
            per row, and how many rows needed the exact test.
        """
        k, n = rows.shape
        found: List[Optional[ChangePointCandidate]] = [None] * k
        if k == 0 or n < max(2 * self.min_segment, 1):
            return found, 0

        # CUSUM proposes; EM refines (one call: it converges in a sweep).
        mean = rows.mean(axis=1)
        centred = rows - mean[:, None]
        proposal, curve = cusum_split_rows(centred, self.min_segment)
        index, _ = em_split_rows(rows, proposal, self.min_segment)

        undecided = np.flatnonzero(
            lrt_screen_rows(centred, curve, mean, index, self.significance_level)
        ).tolist()
        for i, at in zip(undecided, index[undecided].tolist()):
            x = rows[i]
            test = likelihood_ratio_test(x, at, self.significance_level)
            if not test.significant:
                continue
            candidate = ChangePointCandidate(
                index=at,
                mean_before=float(x[:at].mean()),
                mean_after=float(x[at:].mean()),
                p_value=test.p_value,
            )
            if not increases_only or candidate.magnitude > 0:
                found[i] = candidate
        return found, len(undecided)

    def detect(self, values: Sequence[float]) -> Optional[ChangePointCandidate]:
        """Find and validate the most likely change point in ``values``.

        The one-row view of :meth:`detect_rows`.

        Returns:
            A validated candidate, or ``None`` when the series is too
            short, contains no extremum, or the null hypothesis (no
            change) cannot be rejected.
        """
        return self.detect_rows(np.asarray(values, dtype=float)[None, :])[0][0]

    def detect_increase(self, values: Sequence[float]) -> Optional[ChangePointCandidate]:
        """Like :meth:`detect`, but only report mean *increases*.

        The paper's convention: "Without loss of generality, we assume
        that an increase in a metric's value means a regression" (§5.2).
        """
        rows = np.asarray(values, dtype=float)[None, :]
        return self.detect_rows(rows, increases_only=True)[0][0]
