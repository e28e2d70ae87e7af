"""Synthetic workloads for evaluation.

- :mod:`repro.workloads.generators` — labelled window corpora (true
  regressions of paper-like magnitudes, transients, seasonal series,
  clean noise) used by the Figure 8 / §6.2 / Table 4 benchmarks.
- :mod:`repro.workloads.presets` — laptop-scale versions of the Table 1
  production workloads (FrontFaaS, PythonFaaS, TAO, AdServing, Invoicer,
  Capacity Triage) built on the fleet simulator.
"""

from repro.workloads.generators import (
    LabeledWindow,
    WindowKind,
    generate_corpus,
    generate_labeled_window,
)
from repro.workloads.presets import WorkloadPreset, build_preset, preset_names

__all__ = [
    "LabeledWindow",
    "WindowKind",
    "WorkloadPreset",
    "build_preset",
    "generate_corpus",
    "generate_labeled_window",
    "preset_names",
]
