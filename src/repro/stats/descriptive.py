"""Descriptive statistics helpers shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["percentile", "summarize", "SeriesSummary"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Args:
        values: Non-empty sequence.
        q: Percentile in [0, 100].

    Raises:
        ValueError: On empty input or out-of-range ``q``.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return float(np.percentile(x, q))


@dataclass(frozen=True)
class SeriesSummary:
    """Summary statistics of a series."""

    count: int
    mean: float
    std: float
    minimum: float
    p10: float
    p50: float
    p90: float
    p99: float
    maximum: float


def summarize(values: Sequence[float]) -> SeriesSummary:
    """Compute a :class:`SeriesSummary` (the paper's Table 4 quantiles).

    Raises:
        ValueError: On empty input.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("summarize of empty sequence")
    return SeriesSummary(
        count=int(x.size),
        mean=float(x.mean()),
        std=float(x.std()),
        minimum=float(x.min()),
        p10=float(np.percentile(x, 10)),
        p50=float(np.percentile(x, 50)),
        p90=float(np.percentile(x, 90)),
        p99=float(np.percentile(x, 99)),
        maximum=float(x.max()),
    )
