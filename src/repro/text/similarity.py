"""Cosine similarity over vectors and raw texts."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.text.tfidf import TfidfVectorizer

__all__ = ["cosine_similarity", "text_cosine_similarity", "token_cosine_similarity"]

#: A vectorizer fitted on a corpus for :func:`text_cosine_similarity`;
#: ``None`` fits a fresh one on each pair of texts.
VECTORIZER: Optional[TfidfVectorizer] = None


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine of the angle between two vectors (0.0 if either is zero).

    Raises:
        ValueError: On dimension mismatch.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        return 0.0
    return float(x @ y / (nx * ny))


def text_cosine_similarity(a: str, b: str) -> float:
    """TF-IDF cosine similarity between two texts.

    Without a pre-fitted :data:`VECTORIZER`, a fresh one is fitted on
    the two texts alone — adequate for pairwise scoring where only the
    relative overlap matters.
    """
    vectorizer = VECTORIZER if VECTORIZER is not None else TfidfVectorizer().fit([a, b])
    return cosine_similarity(vectorizer.transform(a), vectorizer.transform(b))


def token_cosine_similarity(a: str, b: str) -> float:
    """Cosine similarity of raw token-count vectors.

    Unlike TF-IDF fitted on just the two texts (which *down-weights*
    exactly the tokens the texts share), raw counts measure plain token
    overlap — the right notion for comparing two metric IDs pairwise,
    as PairwiseDedup's text feature does (§5.5.2).
    """
    from collections import Counter

    from repro.text.tokenize import tokenize_text

    counts_a = Counter(tokenize_text(a))
    counts_b = Counter(tokenize_text(b))
    if not counts_a or not counts_b:
        return 0.0
    shared = set(counts_a) & set(counts_b)
    dot = sum(counts_a[t] * counts_b[t] for t in shared)
    norm_a = np.sqrt(sum(c * c for c in counts_a.values()))
    norm_b = np.sqrt(sum(c * c for c in counts_b.values()))
    return float(dot / (norm_a * norm_b))
