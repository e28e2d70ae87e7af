"""Symbolic Aggregate approXimation (SAX) discretization.

The went-away detector discretizes time series into strings so it can ask
whether two windows are "very different" (§5.2.2).  SAX divides the value
range into ``N`` equal-width buckets and replaces each value with its
bucket's letter.  A bucket (letter) is *valid* only when it holds at least
``X%`` of the data points; the paper settled on ``N=20`` and ``X=3%`` as
robust to outliers without missing obvious regressions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Sequence, Tuple

import numpy as np

__all__ = ["SaxEncoding", "sax_encode", "DEFAULT_BUCKETS", "DEFAULT_VALID_FRACTION"]

#: Paper defaults (§5.2.2): N=20 buckets, a bucket is valid at >= 3% mass.
DEFAULT_BUCKETS = 20
DEFAULT_VALID_FRACTION = 0.03

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_ALPHABET_CODES = np.frombuffer(_ALPHABET.encode("ascii"), dtype=np.uint8)


@dataclass(frozen=True)
class SaxEncoding:
    """A SAX string representation of a time series.

    Attributes:
        string: One letter per data point ('a' = lowest bucket).
        letters: Per-point bucket indices (0-based).
        valid_letters: Bucket indices holding at least the validity
            fraction of points.
        bucket_edges: ``n_buckets + 1`` bucket boundary values.
        n_buckets: Number of buckets used.
    """

    string: str
    letters: Tuple[int, ...]
    valid_letters: FrozenSet[int]
    bucket_edges: Tuple[float, ...]
    n_buckets: int

    def letter_counts(self) -> Dict[int, int]:
        """Map bucket index to number of points in that bucket."""
        return dict(Counter(self.letters))

    def max_letter(self) -> int:
        """Highest bucket index that appears at all (-1 if empty)."""
        return max(self.letters) if self.letters else -1

    def max_valid_letter(self) -> int:
        """Highest *valid* bucket index (-1 if no bucket is valid)."""
        return max(self.valid_letters) if self.valid_letters else -1

    def count_outside(self, buckets: AbstractSet[int]) -> int:
        """Number of points whose bucket is not one of ``buckets``."""
        counts = self.letter_counts()
        return sum(count for letter, count in counts.items() if letter not in buckets)

    def bucket_lower_bound(self, letter: int) -> float:
        """Lower boundary value of bucket ``letter``."""
        return self.bucket_edges[letter]


def sax_encode(
    values: Sequence[float],
    n_buckets: int = DEFAULT_BUCKETS,
    valid_fraction: float = DEFAULT_VALID_FRACTION,
    value_range: Tuple[float, float] | None = None,
) -> SaxEncoding:
    """Discretize ``values`` into a SAX string.

    Args:
        values: The time series to discretize.
        n_buckets: Number of equal-width buckets ``N`` (paper default 20).
        valid_fraction: Minimum fraction of points ``X`` for a bucket to
            count as valid (paper default 3%).
        value_range: Optional ``(lo, hi)`` range for the buckets.  Supply
            the *historical* range when encoding an analysis window so the
            two encodings share a bucket grid — this is how the detector
            recognises "new pattern" windows whose values fall outside
            historically valid buckets.

    Returns:
        A :class:`SaxEncoding`.

    Raises:
        ValueError: If ``n_buckets`` is not positive or more letters are
            requested than the alphabet supports.
    """
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    if n_buckets > len(_ALPHABET):
        raise ValueError(f"n_buckets must be <= {len(_ALPHABET)}")

    x = np.asarray(values, dtype=float)
    if x.size == 0:
        edges = tuple(np.linspace(0.0, 1.0, n_buckets + 1))
        return SaxEncoding("", (), frozenset(), edges, n_buckets)

    if value_range is None:
        lo, hi = float(x.min()), float(x.max())
    else:
        lo, hi = value_range
    if hi <= lo:
        hi = lo + 1.0  # Degenerate (constant) series: one-bucket grid.

    edges = np.linspace(lo, hi, n_buckets + 1)
    # Searching the inner edges alone puts values outside the supplied
    # range (and NaN) into the edge buckets, so the encoding stays total.
    letters = edges[1:-1].searchsorted(x, side="right")

    counts = np.bincount(letters, minlength=n_buckets)
    threshold = max(1, int(np.ceil(valid_fraction * x.size)))

    return SaxEncoding(
        string=_ALPHABET_CODES[letters].tobytes().decode("ascii"),
        letters=tuple(letters.tolist()),
        valid_letters=frozenset(np.nonzero(counts >= threshold)[0].tolist()),
        bucket_edges=tuple(edges.tolist()),
        n_buckets=n_buckets,
    )
