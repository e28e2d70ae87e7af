"""Shared labelled-corpus construction for detection benchmarks.

``bench_fig8_egads.py`` (FBDetect vs EGADS tradeoff) and
``bench_detector_scorecard.py`` (multi-detector registry scorecard)
score the same kind of corpus: true step regressions sampled from the
detectable magnitude range, plus the messy-but-benign negative families
production series carry (long transients, seasonality, autocorrelated
wobble, recovering drift).  Building it in one place keeps the two
benches comparable — a detector's scorecard row and the Figure 8 point
are measured against the identical distribution — and keeps the RNG
stream stable: the draw order here reproduces the original fig8 fixture
byte for byte.
"""

from typing import List

import numpy as np

from repro.workloads import LabeledWindow, WindowKind, generate_labeled_window

__all__ = ["fig8_corpus"]

BASE = 0.001            # baseline mean
NOISE_FRACTION = 0.02   # noise std as a fraction of the baseline
N_POSITIVE = 25         # true step regressions
RELATIVE_RANGE = (0.05, 2.0)  # log-uniform relative magnitude of a positive
NEGATIVES = (
    (WindowKind.CLEAN, 40),      # noise only
    (WindowKind.TRANSIENT, 40),  # recovering dip / spike
    (WindowKind.SEASONAL, 15),   # periodic
    (WindowKind.WOBBLE, 45),     # AR(1) level noise
    (WindowKind.DRIFT, 15),      # slow benign excursion
)


def fig8_corpus() -> List[LabeledWindow]:
    """The Figure 8 labelled corpus (positives first, then negatives).

    Mirrors the paper's test set construction: the 107 positives were
    series where FBDetect *reported* regressions, i.e. magnitudes above
    its detectability floor — so positives here sample the detectable
    range (5%-200% of baseline, log-uniform).  Negatives include the
    benign structure that forces window-level detectors into the FP/FN
    tradeoff.  The families come in a fixed order (not shuffled —
    per-family scoring needs the label, and scoring order does not
    matter).
    """
    low, high = RELATIVE_RANGE
    rng = np.random.default_rng(88)
    windows: List[LabeledWindow] = []
    for _ in range(N_POSITIVE):
        relative = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        windows.append(
            generate_labeled_window(
                WindowKind.REGRESSION, rng, noise_fraction=NOISE_FRACTION,
                base=BASE, magnitude=BASE * relative,
            )
        )
    for kind, count in NEGATIVES:
        for _ in range(count):
            windows.append(
                generate_labeled_window(
                    kind, rng, noise_fraction=NOISE_FRACTION, base=BASE,
                )
            )
    return windows
