"""An offline detector suite, judged on a labelled corpus.

FBDetect commits to a single detection stack, but the literature
disagrees on the best change-point detector: Hunter's core is an
E-divisive significance tester (arXiv 2301.03034) and BIPeC argues a
combination of analyzers beats any single one (arXiv 2408.12414).  This
subsystem scores *challenger* detectors against the incumbent pipeline
offline, on one corpus (``benchmarks/bench_detector_scorecard.py``); a
monitor in the service always runs the Figure 6 stack:

- :mod:`repro.detectors.base` — the :class:`Detector` unit: named,
  versioned, identified by a deterministic blake2b param-hash ID.
- :mod:`repro.detectors.library` — five built-ins (the wrapped
  incumbent pipeline, an E-divisive tester, a DP-changepoint detector,
  and MAD/threshold presets) and :func:`default_suite`, one of each as
  the scorecard runs them.
"""

from repro.detectors.base import (
    Detector,
    DetectorDecision,
    DetectorWindow,
    make_detector_id,
    param_hash,
)
from repro.detectors.library import (
    DPChangePointDetector,
    EDivisiveDetector,
    IncumbentDetector,
    MADDetector,
    ThresholdDetector,
    default_suite,
)

__all__ = [
    "DPChangePointDetector",
    "Detector",
    "DetectorDecision",
    "DetectorWindow",
    "EDivisiveDetector",
    "IncumbentDetector",
    "MADDetector",
    "ThresholdDetector",
    "default_suite",
    "make_detector_id",
    "param_hash",
]
