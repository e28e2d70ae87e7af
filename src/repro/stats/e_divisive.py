"""E-divisive change-point test: energy-statistic split + permutation test.

Hunter (arXiv 2301.03034) builds its detector on the E-divisive mean
procedure [Matteson & James 2014]: the best split of a series is the one
maximizing the *energy divergence* between the two sides, and its
significance is judged by a permutation test — shuffle the series, redo
the split search, and ask how often chance alone matches the observed
divergence.  This module implements that tester from scratch so the
detector registry can run a Hunter-style challenger beside the paper's
CUSUM+EM incumbent.

For a split of ``x`` into ``A = x[:t]`` (m points) and ``B = x[t:]``
(k points), the sample energy divergence is

    E(A, B) = 2 * mean|a - b| - mean|a - a'| - mean|b - b'|

(within-segment means over unordered pairs), and the scan statistic is

    Q(t) = (m * k / (m + k)) * E(A, B)

All splits are scored at once from the pairwise distance matrix via 2-D
prefix sums, so one sweep costs O(n^2) and each permutation reuses the
same matrix under a fancy-index shuffle.  Determinism: the permutation
stream comes from a fresh seeded :class:`numpy.random.Generator`, so the
same series and parameters always yield the same p-value — a property
the shadow-mode byte-identity contract relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["EDivisiveResult", "e_divisive_test"]


@dataclass(frozen=True)
class EDivisiveResult:
    """Outcome of an E-divisive scan.

    Attributes:
        index: First index of the second segment (best split).
        statistic: Observed scan statistic ``Q(index)``.
        p_value: Permutation p-value (1.0 when no permutations ran).
        significant: ``p_value <= alpha`` for the alpha given to the test.
        mean_before: Mean of the pre-split segment.
        mean_after: Mean of the post-split segment.
    """

    index: int
    statistic: float
    p_value: float
    significant: bool
    mean_before: float
    mean_after: float

    @property
    def magnitude(self) -> float:
        """Estimated level shift (positive = increase)."""
        return self.mean_after - self.mean_before


def _distance_matrix(x: np.ndarray) -> np.ndarray:
    return np.abs(x[:, None] - x[None, :])


def _split_statistics(
    dist: np.ndarray, min_segment: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Q(t) for every admissible split t, from one prefix-sum pass.

    Returns ``(t_values, q)`` where ``q[i]`` is the scan statistic for
    splitting before index ``t_values[i]``.
    """
    n = dist.shape[0]
    # prefix[i, j] = sum of dist[:i+1, :j+1]; two cumsums build it.
    prefix = dist.cumsum(axis=0).cumsum(axis=1)
    total = prefix[n - 1, n - 1]
    t_values = np.arange(min_segment, n - min_segment + 1)
    diag = prefix[t_values - 1, t_values - 1]  # sum over A x A
    row = prefix[t_values - 1, n - 1]  # sum over A x (A u B)
    cross = row - diag  # sum over A x B
    within_a = diag / 2.0  # unordered pairs (diagonal is zero)
    within_b = (total - 2.0 * row + diag) / 2.0
    m = t_values.astype(float)
    k = float(n) - m
    pairs_a = m * (m - 1.0) / 2.0
    pairs_b = k * (k - 1.0) / 2.0
    term_cross = 2.0 * cross / (m * k)
    term_a = np.divide(
        within_a, pairs_a, out=np.zeros_like(within_a), where=pairs_a > 0
    )
    term_b = np.divide(
        within_b, pairs_b, out=np.zeros_like(within_b), where=pairs_b > 0
    )
    energy = term_cross - term_a - term_b
    q = (m * k / (m + k)) * energy
    return t_values, q


def e_divisive_test(
    values: Sequence[float],
    min_segment: int = 2,
    n_permutations: int = 99,
    alpha: float = 0.05,
    seed: int = 0,
) -> Optional[EDivisiveResult]:
    """E-divisive significance test for a single change point.

    Finds the split maximizing ``Q(t)``, then runs a permutation test:
    each permutation shuffles the series (equivalently, conjugates the
    distance matrix by a random permutation) and records its own maximal
    ``Q``.  The p-value uses the standard add-one estimator

        p = (1 + #{permutation max-Q >= observed}) / (n_permutations + 1)

    so it can never be exactly zero.

    Args:
        values: The time series.
        min_segment: Minimum points per segment.
        n_permutations: Permutation count (0 disables the test; the
            result then reports ``p_value=1.0`` and is never significant).
        alpha: Significance level compared against the p-value.
        seed: Seed for the permutation stream (fresh generator per call,
            so results are deterministic and process-independent).

    Returns:
        An :class:`EDivisiveResult`, or ``None`` when the series is too
        short for any admissible split.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_segment:
        return None
    dist = _distance_matrix(x)
    t_values, q = _split_statistics(dist, min_segment)
    best = int(np.argmax(q))
    index = int(t_values[best])
    observed = float(q[best])

    exceeded = 0
    if n_permutations > 0:
        rng = np.random.default_rng(seed)
        for _ in range(n_permutations):
            order = rng.permutation(n)
            _, perm_q = _split_statistics(dist[np.ix_(order, order)], min_segment)
            if float(np.max(perm_q)) >= observed:
                exceeded += 1
        p_value = (1.0 + exceeded) / (n_permutations + 1.0)
        significant = p_value <= alpha
    else:
        p_value = 1.0
        significant = False

    return EDivisiveResult(
        index=index,
        statistic=observed,
        p_value=p_value,
        significant=significant,
        mean_before=float(np.mean(x[:index])),
        mean_after=float(np.mean(x[index:])),
    )
