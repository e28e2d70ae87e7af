"""Normal-loss change-point search via dynamic programming.

The long-term detection path (§5.3) locates change points with "the normal
loss and dynamic programming search ... It aims to identify the partition
point that minimizes the variance on both sides, with the partition point
being the change point" [Truong et al. 2020].

For a single split this reduces to minimizing the summed within-segment
residual sum of squares; prefix sums make the scan O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SplitResult",
    "best_split_normal_loss",
    "normal_segment_loss",
]


def normal_segment_loss(prefix: np.ndarray, prefix_sq: np.ndarray, lo: int, hi: int) -> float:
    """RSS of segment ``x[lo:hi]`` around its own mean, via prefix sums."""
    n = hi - lo
    if n <= 0:
        return 0.0
    s = prefix[hi] - prefix[lo]
    q = prefix_sq[hi] - prefix_sq[lo]
    return float(q - s * s / n)


def _prefix_sums(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(values, dtype=float)
    return (
        np.concatenate([[0.0], np.cumsum(x)]),
        np.concatenate([[0.0], np.cumsum(x * x)]),
    )


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a normal-loss split search.

    Attributes:
        index: First index of the second segment.
        loss: Total within-segment RSS of the split.
        gain: Loss reduction relative to no split (>= 0).
    """

    index: int
    loss: float
    gain: float


def best_split_normal_loss(
    values: Sequence[float],
    min_segment: int = 2,
) -> Optional[SplitResult]:
    """Find the split minimizing total within-segment variance.

    Args:
        values: The time series.
        min_segment: Minimum points per segment.

    Returns:
        The optimal :class:`SplitResult`, or ``None`` when the series is
        too short.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_segment:
        return None
    prefix, prefix_sq = _prefix_sums(x)
    no_split = normal_segment_loss(prefix, prefix_sq, 0, n)

    best_idx, best_loss = None, np.inf
    for t in range(min_segment, n - min_segment + 1):
        loss = normal_segment_loss(prefix, prefix_sq, 0, t) + normal_segment_loss(
            prefix, prefix_sq, t, n
        )
        if loss < best_loss:
            best_idx, best_loss = t, loss
    assert best_idx is not None
    return SplitResult(index=best_idx, loss=float(best_loss), gain=float(no_split - best_loss))

