"""Streaming detection service (the operational scale-out layer).

The paper's FBDetect runs as a serverless fleet scanning ~800k
subroutine-level series in parallel (§5, Figure 6).  This package is the
single-process seed of that deployment shape: a sharded streaming
service that routes incoming samples to per-shard ingest workers with
bounded queues and explicit backpressure, batch-flushes them into
per-shard TSDBs, runs each shard's :class:`DetectionScheduler`, survives
restarts through checkpoints, and measures itself with a built-in
metrics registry (the §6.6 "overhead of the detector itself" story).

Modules:

- :mod:`repro.service.router` — consistent-hash shard routing.
- :mod:`repro.service.ingest` — bounded ingest queues + backpressure.
- :mod:`repro.service.checkpoint` — durable checkpoint/restore.
- :mod:`repro.service.metrics` — counters, latency histograms, the exposition.
- :mod:`repro.service.parallel` — multi-process shard execution.
- :mod:`repro.service.shard` — one shard, its two serialised forms, and
  the accessors the views read.
- :mod:`repro.service.service` — the composed streaming service:
  routing, advance, delivery, lifecycle, checkpoint.
- :mod:`repro.service.views` — the read side: one ``path -> view``
  table (``/metrics``, ``/healthz``, ``/status``, …) folding over shards.

Structured logs, funnel spans and the HTTP server that routes the view
table (:class:`repro.obs.ObservabilityServer`) live in :mod:`repro.obs`.
"""

from repro.service.checkpoint import CheckpointError, CheckpointManager
from repro.service.ingest import BackpressurePolicy, Sample, ShardIngestWorker, frames_of
from repro.service.metrics import Counter, Histogram, MetricsRegistry
from repro.service.parallel import ParallelShardExecutor, ShardAdvanceResult
from repro.service.router import ConsistentHashRouter
from repro.service.service import StreamingDetectionService
from repro.service.shard import ShardStats
from repro.service.views import ServiceStats

__all__ = [
    "BackpressurePolicy",
    "CheckpointError",
    "CheckpointManager",
    "ConsistentHashRouter",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ParallelShardExecutor",
    "Sample",
    "ServiceStats",
    "ShardAdvanceResult",
    "ShardIngestWorker",
    "ShardStats",
    "StreamingDetectionService",
    "frames_of",
]
