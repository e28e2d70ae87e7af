"""Labelled synthetic window corpora.

The paper's quantitative evaluation needs labelled data: series known to
contain a true regression, and series known to contain only noise,
transients, or seasonality.  These generators produce such corpora with
magnitudes matching Table 4's distribution (smallest 0.005%, P50 ~0.05%,
largest a few percent, log-uniform-ish spread).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "WindowKind",
    "LabeledWindow",
    "generate_labeled_window",
    "generate_corpus",
]

#: A generated window's baseline, analysis-window and extended-window lengths.
HISTORIC_POINTS = 400
ANALYSIS_POINTS = 150
EXTENDED_POINTS = 50


class WindowKind(str, enum.Enum):
    """What a labelled window actually contains."""

    CLEAN = "clean"                # noise only
    REGRESSION = "regression"      # a persistent step regression
    TRANSIENT = "transient"        # a dip/spike that recovers
    SEASONAL = "seasonal"          # periodic pattern, no regression
    GRADUAL = "gradual"            # slow persistent ramp (long-term)
    WOBBLE = "wobble"              # benign autocorrelated level noise
    DRIFT = "drift"                # benign slow drift that reverts


@dataclass(frozen=True)
class LabeledWindow:
    """One labelled detection window.

    Attributes:
        values: Full series (historic + analysis [+ extended]).
        historic_points: Points belonging to the historic window.
        analysis_points: Points belonging to the analysis window.
        extended_points: Points belonging to the extended window.
        kind: Ground-truth content.
        magnitude: Injected regression magnitude (0 for non-regressions).
        base: Baseline mean.
        change_index: Index into ``values`` where the injected change
            starts (the step offset for REGRESSION, the ramp start for
            GRADUAL); -1 when the window contains no true regression.
            Detection-latency scoring subtracts this from a detector's
            claimed change index.
    """

    values: np.ndarray
    historic_points: int
    analysis_points: int
    extended_points: int
    kind: WindowKind
    magnitude: float
    base: float
    change_index: int = -1

    @property
    def is_true_regression(self) -> bool:
        return self.kind in (WindowKind.REGRESSION, WindowKind.GRADUAL)

    @property
    def historic(self) -> np.ndarray:
        return self.values[: self.historic_points]

    @property
    def analysis(self) -> np.ndarray:
        return self.values[self.historic_points : self.historic_points + self.analysis_points]

    @property
    def extended(self) -> np.ndarray:
        return self.values[self.historic_points + self.analysis_points :]


def sample_regression_magnitude(rng: np.random.Generator, base: float) -> float:
    """A paper-like regression magnitude relative to ``base``.

    Log-uniform between 0.5% and 400% of the baseline — producing an
    absolute-magnitude distribution whose quantiles resemble Table 4 when
    bases are gCPU-scale.
    """
    relative = float(np.exp(rng.uniform(np.log(0.005), np.log(4.0))))
    return base * relative


def generate_labeled_window(
    kind: WindowKind,
    rng: np.random.Generator,
    base: float = 0.001,
    noise_fraction: float = 0.02,
    magnitude: Optional[float] = None,
) -> LabeledWindow:
    """Generate one labelled window of the requested kind, its three
    windows :data:`HISTORIC_POINTS`, :data:`ANALYSIS_POINTS` and
    :data:`EXTENDED_POINTS` long.

    Args:
        kind: Content to inject.
        rng: Random generator.
        base: Baseline mean (gCPU-scale by default).
        noise_fraction: Noise std as a fraction of ``base``.
        magnitude: Regression magnitude override; sampled paper-like
            when omitted.

    Returns:
        A :class:`LabeledWindow`.
    """
    historic_points, analysis_points, extended_points = (
        HISTORIC_POINTS, ANALYSIS_POINTS, EXTENDED_POINTS
    )
    n = historic_points + analysis_points + extended_points
    noise = base * noise_fraction
    values = rng.normal(base, noise, n)

    injected = 0.0
    change_index = -1
    if kind is WindowKind.REGRESSION:
        injected = magnitude if magnitude is not None else sample_regression_magnitude(rng, base)
        # Change point lands inside the analysis window (its first 70%)
        # so the post-change segment persists through the extended window.
        offset = historic_points + int(rng.integers(5, max(6, int(0.7 * analysis_points))))
        values[offset:] += injected
        change_index = offset
    elif kind is WindowKind.TRANSIENT:
        # "From seconds to hours" (§1): lengths range from a blip to
        # three quarters of the analysis window, always recovering
        # within the extended window.
        depth = base * float(rng.uniform(0.3, 1.5))
        start = historic_points + int(rng.integers(5, max(6, int(0.4 * analysis_points))))
        max_length = historic_points + analysis_points + extended_points // 2 - start
        length = int(rng.integers(5, max(6, min(int(0.75 * analysis_points), max_length))))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        values[start : start + length] += sign * depth
    elif kind is WindowKind.SEASONAL:
        period = int(rng.integers(20, 60))
        amplitude = base * float(rng.uniform(0.05, 0.3))
        t = np.arange(n)
        values += amplitude * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
    elif kind is WindowKind.GRADUAL:
        injected = magnitude if magnitude is not None else sample_regression_magnitude(rng, base)
        ramp_start = historic_points - int(0.2 * historic_points)
        ramp = np.zeros(n)
        ramp[ramp_start:] = np.linspace(0.0, injected, n - ramp_start)
        values += ramp
        change_index = ramp_start
    elif kind is WindowKind.WOBBLE:
        # AR(1) level noise: the window mean wanders by a few noise sigmas
        # without any code change behind it — common in production.
        phi = float(rng.uniform(0.97, 0.995))
        innovation = base * noise_fraction * float(rng.uniform(0.4, 1.0))
        level = 0.0
        wander = np.empty(n)
        for i in range(n):
            level = phi * level + rng.normal(0.0, innovation)
            wander[i] = level
        values += wander
    elif kind is WindowKind.DRIFT:
        # A slow benign excursion that returns to baseline by window end.
        amplitude = base * noise_fraction * float(rng.uniform(1.0, 3.0))
        values += amplitude * np.sin(np.pi * np.arange(n) / n) ** 2

    return LabeledWindow(
        values=np.maximum(values, 0.0),
        historic_points=historic_points,
        analysis_points=analysis_points,
        extended_points=extended_points,
        kind=kind,
        magnitude=injected,
        base=base,
        change_index=change_index,
    )


def generate_corpus(
    n_regressions: int,
    n_clean: int,
    n_transients: int,
    n_seasonal: int = 0,
    n_gradual: int = 0,
    n_wobble: int = 0,
    n_drift: int = 0,
    seed: int = 0,
    **window_kwargs,
) -> List[LabeledWindow]:
    """A shuffled corpus with the requested composition."""
    rng = np.random.default_rng(seed)
    corpus: List[LabeledWindow] = []
    composition = (
        (WindowKind.REGRESSION, n_regressions),
        (WindowKind.CLEAN, n_clean),
        (WindowKind.TRANSIENT, n_transients),
        (WindowKind.SEASONAL, n_seasonal),
        (WindowKind.GRADUAL, n_gradual),
        (WindowKind.WOBBLE, n_wobble),
        (WindowKind.DRIFT, n_drift),
    )
    for kind, count in composition:
        for _ in range(count):
            corpus.append(generate_labeled_window(kind, rng, **window_kwargs))
    rng.shuffle(corpus)
    return corpus

