"""Downstream-system substrates the paper's workloads depend on.

- :mod:`repro.substrates.tao` — a TAO-style graph store (objects and
  associations) with per-data-type I/O metrics.  PythonFaaS/FrontFaaS
  workloads detect "per-data-type I/O regressions to the downstream
  database" (§3); this substrate produces those series.
- :mod:`repro.substrates.canary` — canary-test analysis (control vs
  canary server groups, Welch's t-test), the pre-production tool whose
  findings §6.2 uses to corroborate FBDetect's reports.
"""

from repro.substrates.canary import CanaryVerdict, compare_canary
from repro.substrates.tao import Association, TaoMetricsEmitter, TaoObject, TaoStore

__all__ = [
    "Association",
    "CanaryVerdict",
    "TaoMetricsEmitter",
    "TaoObject",
    "TaoStore",
    "compare_canary",
]
