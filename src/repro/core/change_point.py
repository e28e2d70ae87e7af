"""Change-point detector (§5.2.1).

Applies CUSUM and EM iteratively to converge on the change point with the
maximum likelihood of having different means before and after, then
validates the candidate with a likelihood-ratio chi-squared test at
significance 0.01.  Detection runs over the analysis window, using the
historic window only downstream (went-away, thresholds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.stats.cusum import cusum_changepoint
from repro.stats.em import em_mean_split
from repro.stats.hypothesis import likelihood_ratio_test

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


class ChangePointDetector:
    """CUSUM + EM iterative change-point detection with LRT validation.

    Args:
        significance_level: LRT rejection level (paper: 0.01).
        min_segment: Minimum points on each side of a change point.
    """

    def __init__(
        self,
        significance_level: float = 0.01,
        min_segment: int = 3,
    ) -> None:
        if not 0 < significance_level < 1:
            raise ValueError("significance_level must be in (0, 1)")
        self.significance_level = significance_level
        self.min_segment = min_segment

    def detect(self, values: Sequence[float]) -> Optional[ChangePointCandidate]:
        """Find and validate the most likely change point in ``values``.

        Returns:
            A validated candidate, or ``None`` when the series is too
            short, contains no extremum, or the null hypothesis (no
            change) cannot be rejected.
        """
        x = np.asarray(values, dtype=float)
        if x.size < 2 * self.min_segment:
            return None

        # CUSUM proposes; EM refines (one call: it converges in a sweep).
        proposal = cusum_changepoint(x, min_segment=self.min_segment)
        if proposal is None:
            return None
        refined = em_mean_split(
            x, initial_index=proposal.index, min_segment=self.min_segment
        )
        if refined is None:
            return None
        index = refined[0]

        test = likelihood_ratio_test(x, index, self.significance_level)
        if not test.significant:
            return None
        return ChangePointCandidate(
            index=index,
            mean_before=float(x[:index].mean()),
            mean_after=float(x[index:].mean()),
            p_value=test.p_value,
        )

    def detect_increase(self, values: Sequence[float]) -> Optional[ChangePointCandidate]:
        """Like :meth:`detect`, but only report mean *increases*.

        The paper's convention: "Without loss of generality, we assume
        that an increase in a metric's value means a regression" (§5.2).
        """
        candidate = self.detect(values)
        if candidate is None or candidate.magnitude <= 0:
            return None
        return candidate
