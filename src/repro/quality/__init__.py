"""Data-quality admission, repair, and gap-aware detection support.

Production telemetry is dirty: hosts restart and drop samples, skewed
clocks deliver batches out of order, collectors emit NaN bursts, and
cumulative counters wrap.  FBDetect's premise (§2) is surviving exactly
this noise, so this package puts an admission-and-repair layer between
ingest and the TSDB/pipeline — the same discipline hyperscale TSDBs
apply before data reaches analysis:

- :class:`~repro.quality.admission.AdmissionController` runs per-series
  validators on every write: NaN/Inf points are quarantined, negative
  values on non-negative metrics are clamped, counter resets are
  detected and rebased so rollovers look continuous, repeated
  timestamps resolve last-write-wins, and out-of-order arrivals are
  absorbed in a bounded per-series reordering buffer so stragglers
  reach the TSDB as one batched backfill merge instead of interleaving
  O(n) single-point inserts with the hot append path.
- :class:`~repro.quality.quarantine.QuarantineStore` keeps the
  irreparable points (capped, with per-series counts behind the quality
  scores) for operator triage on the ``/quality`` endpoint.
- :class:`~repro.quality.gaps.QualityGate` makes detection *gap-aware*:
  change-point scans over windows with excessive missing or quarantined
  data are suppressed instead of firing false positives, and stale
  series are evicted from scanning until they resume.
"""

from repro.quality.admission import (
    ADMIT,
    DROP,
    HELD,
    AdmissionController,
)
from repro.quality.gaps import QualityGate, window_coverage
from repro.quality.quarantine import QuarantineStore

__all__ = [
    "ADMIT",
    "DROP",
    "HELD",
    "AdmissionController",
    "QualityGate",
    "QuarantineStore",
    "window_coverage",
]
