"""Tokenizers for code identifiers and natural-language text.

Metric IDs look like ``Namespace::Class::do_thing.gcpu`` and code-change
descriptions are short English texts; both need to be reduced to
comparable tokens before TF-IDF vectorization.
"""

from __future__ import annotations

import functools
import re
from typing import List, Tuple

__all__ = ["tokenize_identifier", "tokenize_text", "char_ngrams"]

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_WORD = re.compile(r"[^0-9A-Za-z]+")

#: The gram lengths :func:`char_ngrams` cuts: SOMDedup's 2- and 3-grams.
NGRAM_LENGTHS = (2, 3)


def tokenize_identifier(identifier: str) -> List[str]:
    """Split a code identifier into lowercase word tokens.

    Handles ``snake_case``, ``CamelCase``, ``::`` and ``.`` separators:
    ``"TaoClient::getAssoc_range"`` -> ``["tao", "client", "get",
    "assoc", "range"]``.
    """
    parts = [p for p in _NON_WORD.split(identifier) if p]
    tokens: List[str] = []
    for part in parts:
        tokens.extend(t.lower() for t in _CAMEL_BOUNDARY.split(part) if t)
    return tokens


def tokenize_text(text: str) -> List[str]:
    """Tokenize free-form text (titles, summaries) into lowercase words.

    Identifier-like words embedded in prose are further split the same way
    code identifiers are, so "loosening constraints for fooBar" matches a
    regression in subroutine ``foo_bar``.  A scan asks for the same few
    titles and metric IDs over and over, so the tokens are memoised; each
    call gets a fresh list, and no caller can alter what is cached.
    """
    return list(_text_tokens(text))


@functools.lru_cache(maxsize=4096)
def _text_tokens(text: str) -> Tuple[str, ...]:
    tokens: List[str] = []
    for word in text.split():
        tokens.extend(tokenize_identifier(word))
    return tuple(tokens)


def char_ngrams(text: str) -> List[str]:
    """Character n-grams of ``text`` for each of :data:`NGRAM_LENGTHS`.

    SOMDedup converts metric IDs "into integers using TF-IDF with 2- and
    3-gram lengths" (§5.5.1); these are the grams it vectorizes.
    """
    cleaned = text.lower()
    grams: List[str] = []
    for n in NGRAM_LENGTHS:
        if n <= 0:
            raise ValueError("n-gram lengths must be positive")
        grams.extend(cleaned[i : i + n] for i in range(max(0, len(cleaned) - n + 1)))
    return grams
