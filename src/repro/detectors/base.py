"""Detector units: named, versioned, with deterministic param-hash IDs.

A *detector* is the unit the offline suite scores: a pure function from a
window of series values to a fired/quiet decision, carrying a stable
identity of the form ``{type}-v{version}-{hash8}`` where ``hash8`` is a
blake2b digest over the canonical (sorted-key JSON) parameter encoding —
the detectk-style scheme.  Two detectors with the same type, version,
and parameters therefore share an ID in every process regardless of
``PYTHONHASHSEED``, so a scorecard row can be compared across runs and
commits by its ID (the same property
:func:`repro.obs.logging.correlation_id` gives alert keys).

Detectors must be:

- **pure** — ``scan`` reads the window arrays and returns a decision; it
  never mutates them (a caller may pass views of live buffers);
- **deterministic** — same window, same decision, in any process (use
  seeded fresh RNGs, never global or wall-clock state).
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "Detector",
    "DetectorDecision",
    "DetectorWindow",
    "make_detector_id",
    "param_hash",
]


def param_hash(params: Mapping[str, object], digest_size: int = 4) -> str:
    """Deterministic short hash of a parameter mapping.

    Canonical encoding: JSON with sorted keys and compact separators,
    hashed with blake2b.  Stable across processes and
    ``PYTHONHASHSEED`` values.

        >>> param_hash({"b": 2, "a": 1}) == param_hash({"a": 1, "b": 2})
        True
    """
    encoded = json.dumps(
        {key: params[key] for key in sorted(params)},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=digest_size).hexdigest()


def make_detector_id(type_name: str, version: int, params: Mapping[str, object]) -> str:
    """The canonical detector ID: ``{type}-v{version}-{hash8}``."""
    return f"{type_name}-v{version}-{param_hash(params)}"


@dataclass(frozen=True)
class DetectorWindow:
    """One scan's worth of series data, oriented so higher is worse.

    The same three segments the pipeline scans: the historic baseline,
    the analysis window, and the extended (persistence) window.  Arrays
    may be views of live buffers — detectors must treat them as
    read-only.
    """

    historic: np.ndarray
    analysis: np.ndarray
    extended: np.ndarray

    @property
    def full(self) -> np.ndarray:
        """Historic + analysis + extended, concatenated."""
        return np.concatenate([self.historic, self.analysis, self.extended])

    @property
    def analysis_start(self) -> int:
        """Global index of the first analysis point."""
        return int(self.historic.size)

    @classmethod
    def from_labeled(cls, window: "object") -> "DetectorWindow":
        """Adapt a :class:`repro.workloads.LabeledWindow` (bench corpora)."""
        return cls(
            historic=np.asarray(window.historic, dtype=float),
            analysis=np.asarray(window.analysis, dtype=float),
            extended=np.asarray(window.extended, dtype=float),
        )


@dataclass(frozen=True)
class DetectorDecision:
    """A detector's verdict on one window.

    Attributes:
        fired: Whether the detector claims a regression.
        index: Global index (into the concatenated window) of the
            claimed change point; ``None`` when quiet.  Global indexing
            makes detection-latency math uniform across detectors.
        magnitude: Estimated level shift (positive = worse).
        score: Detector-specific evidence strength (p-value, gain, ...).
        detail: Human-readable one-liner for funnels and scorecards.
    """

    fired: bool
    index: Optional[int] = None
    magnitude: float = 0.0
    score: float = 0.0
    detail: str = ""

    @classmethod
    def quiet(cls, detail: str = "") -> "DetectorDecision":
        return cls(fired=False, detail=detail)


class Detector(abc.ABC):
    """Base class for detectors.

    Subclasses set ``type_name`` and ``version`` as class attributes and
    implement :meth:`params` (the identity-defining configuration) and
    :meth:`scan`.  Bump ``version`` whenever the algorithm changes in a
    way that makes old scores incomparable — the ID changes with it.
    """

    type_name: str = "abstract"
    version: int = 1

    @abc.abstractmethod
    def params(self) -> Mapping[str, object]:
        """Identity-defining parameters (JSON-encodable values)."""

    @abc.abstractmethod
    def scan(self, window: DetectorWindow) -> DetectorDecision:
        """Score one window.  Must not mutate ``window`` arrays."""

    @property
    def detector_id(self) -> str:
        """Deterministic ``{type}-v{version}-{hash8}`` identity."""
        return make_detector_id(self.type_name, self.version, self.params())

    def describe(self) -> dict:
        """Scorecard row: identity plus parameters."""
        return {
            "id": self.detector_id,
            "type": self.type_name,
            "version": self.version,
            "params": dict(self.params()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<{type(self).__name__} {self.detector_id}>"
