"""repro — a reproduction of FBDetect (SOSP '24).

FBDetect catches performance regressions as small as 0.005% in noisy
production environments by monitoring subroutine-level gCPU time series
derived from fleet-wide stack-trace sampling, filtering transient and
cost-shift false positives, deduplicating correlated regressions, and
ranking root-cause candidates.

Quickstart::

    import numpy as np
    from repro import FBDetect, table1_config

    config = table1_config("frontfaas_small").with_windows(
        historic=3600.0, analysis=1200.0, extended=600.0
    )
    detector = FBDetect(config)
    values = np.concatenate([
        np.random.default_rng(0).normal(0.001, 0.00002, 300),
        np.random.default_rng(1).normal(0.001 + 0.0001, 0.00002, 150),
    ])
    result = detector.detect_series(values, tags={"metric": "gcpu"})
    print(result.reported)

Subpackages:

- :mod:`repro.core` — the detection pipeline (the paper's contribution).
- :mod:`repro.stats` — statistical primitives (CUSUM, EM, SAX, STL ...).
- :mod:`repro.profiling` — stack-trace sampling, PyPerf, gCPU.
- :mod:`repro.fleet` — the production-fleet simulator.
- :mod:`repro.tsdb` — in-memory time-series database.
- :mod:`repro.som`, :mod:`repro.text` — clustering and text analysis.
- :mod:`repro.baselines` — EGADS-style comparison algorithms.
- :mod:`repro.workloads` — Table 1 synthetic workload generators.
- :mod:`repro.reporting` — incident reports and funnel summaries.
- :mod:`repro.runtime` — the scheduler and incident sinks.
- :mod:`repro.service` — the sharded streaming detection service
  (consistent-hash routing, backpressure, checkpoints, self-metrics).
- :mod:`repro.obs` — observability: structured JSON logging with
  correlation ids, funnel-stage span tracing, and the ``/metrics`` +
  ``/healthz`` + ``/status`` pull endpoints.
"""

from repro.config import TABLE1_CONFIGS, DetectionConfig, table1_config
from repro.core.detector import FBDetect
from repro.core.pipeline import DetectionPipeline, FunnelCounters, PipelineResult
from repro.core.planned_changes import PlannedChange, PlannedChangeCorrelator
from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MetricContext,
    Regression,
    RegressionGroup,
    RegressionKind,
)
from repro.obs import FunnelTrace, RunTrace, Span, TraceStore
from repro.service import (
    BackpressurePolicy,
    CheckpointManager,
    ConsistentHashRouter,
    MetricsRegistry,
    Sample,
    ServiceStats,
    StreamingDetectionService,
)
from repro.tsdb import SeriesFrame, TimeSeries, TimeSeriesDatabase, WindowSpec

__version__ = "1.0.0"

__all__ = [
    "BackpressurePolicy",
    "CheckpointManager",
    "ConsistentHashRouter",
    "DetectionConfig",
    "DetectionPipeline",
    "DetectionVerdict",
    "FBDetect",
    "FilterReason",
    "FunnelCounters",
    "FunnelTrace",
    "MetricContext",
    "MetricsRegistry",
    "PipelineResult",
    "PlannedChange",
    "PlannedChangeCorrelator",
    "Regression",
    "RegressionGroup",
    "RegressionKind",
    "RunTrace",
    "Sample",
    "SeriesFrame",
    "Span",
    "TraceStore",
    "ServiceStats",
    "StreamingDetectionService",
    "TABLE1_CONFIGS",
    "TimeSeries",
    "TimeSeriesDatabase",
    "WindowSpec",
    "table1_config",
]
