"""TF-IDF vectorization over word tokens or character n-grams.

Implements the standard ``tf * (log((1 + N) / (1 + df)) + 1)`` weighting
with L2 normalization, over either word tokens (root-cause text analysis,
§5.6) or character n-grams (SOMDedup metric-ID features, §5.5.1).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List

import numpy as np

from repro.text.tokenize import char_ngrams, tokenize_text

__all__ = ["TfidfVectorizer", "NgramTfidfVectorizer"]


class TfidfVectorizer:
    """Fit a TF-IDF model on a corpus and transform documents to vectors.

    Documents are split into word tokens by
    :func:`repro.text.tokenize.tokenize_text`.
    """

    def __init__(self) -> None:
        self._vocabulary: Dict[str, int] = {}
        self._idf: np.ndarray = np.empty(0)
        self._fitted = False

    def _tokenize(self, document: str) -> List[str]:
        return tokenize_text(document)

    def fit(self, corpus: Iterable[str]) -> "TfidfVectorizer":
        """Learn vocabulary and inverse document frequencies from ``corpus``."""
        doc_tokens = [self._tokenize(doc) for doc in corpus]
        n_docs = len(doc_tokens)
        df: Counter = Counter()
        for tokens in doc_tokens:
            df.update(set(tokens))
        self._vocabulary = {token: i for i, token in enumerate(sorted(df))}
        idf = np.empty(len(self._vocabulary))
        for token, col in self._vocabulary.items():
            idf[col] = np.log((1 + n_docs) / (1 + df[token])) + 1.0
        self._idf = idf
        self._fitted = True
        return self

    def transform(self, document: str) -> np.ndarray:
        """L2-normalized TF-IDF vector of ``document``.

        Out-of-vocabulary tokens are ignored.

        Raises:
            RuntimeError: If called before :meth:`fit`.
        """
        if not self._fitted:
            raise RuntimeError("TfidfVectorizer.transform called before fit")
        vector = np.zeros(len(self._vocabulary))
        counts = Counter(self._tokenize(document))
        for token, count in counts.items():
            col = self._vocabulary.get(token)
            if col is not None:
                vector[col] = count * self._idf[col]
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector


class NgramTfidfVectorizer(TfidfVectorizer):
    """TF-IDF over character 2- and 3-grams (SOMDedup's metric-ID
    encoding, the paper's n-gram lengths)."""

    def _tokenize(self, document: str) -> List[str]:
        return char_ngrams(document)

    def fit(self, corpus: Iterable[str]) -> "NgramTfidfVectorizer":
        corpus = list(corpus)
        super().fit(corpus)
        # Centroid of the corpus in TF-IDF space, cached for the scalar
        # metric-ID projection below.
        if corpus and self._vocabulary:
            vectors = np.vstack([self.transform(doc) for doc in corpus])
            centroid = vectors.mean(axis=0)
            norm = np.linalg.norm(centroid)
            self._centroid = centroid / norm if norm > 0 else centroid
        else:
            self._centroid = np.zeros(len(self._vocabulary))
        return self

    def metric_id_feature(self, metric_id: str) -> float:
        """Scalar encoding of a metric ID's TF-IDF vector.

        SOMDedup needs metric IDs "converted into integers" so they can be
        one coordinate of a SOM feature vector.  We project the TF-IDF
        vector onto the corpus centroid direction: IDs sharing many
        n-grams with each other (and hence with the centroid region they
        occupy) land near each other, while unrelated IDs land apart.
        """
        vector = self.transform(metric_id)
        if vector.size == 0 or self._centroid.size != vector.size:
            return 0.0
        return float(vector @ self._centroid)
