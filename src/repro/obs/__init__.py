"""Observability: structured logs, funnel spans, and pull endpoints.

FBDetect earns its keep at Meta by being *operable*: §5–§6 of the paper
are about on-call engineers triaging the Figure 6 funnel stage by stage
and trusting its drop rates.  This package is the layer that makes the
reproduction operable the same way:

- :mod:`repro.obs.logging` — structured JSON logging with
  per-series/per-alert correlation IDs bound through context managers,
  so every log line of one incident can be grepped by one id.
- :mod:`repro.obs.spans` — span-based tracing of every funnel stage:
  each pipeline run records one :class:`Span` per stage (input/output
  counts, drop reasons, elapsed seconds) into a ring-buffer
  :class:`TraceStore`; :class:`FunnelTrace` aggregates the retained
  runs into a live Table 3-style stage-attrition view.
- :mod:`repro.obs.http` — a stdlib :mod:`http.server` pull surface for
  the streaming service: it routes the ``path -> view`` table of
  :mod:`repro.service.views` (``/metrics``, ``/healthz``, ``/status``,
  ``/faults``, ``/quality``).

Dependency direction: :mod:`repro.obs.logging` and :mod:`repro.obs.spans`
import only the standard library, so :mod:`repro.core`,
:mod:`repro.runtime`, and :mod:`repro.service` may all depend on them
without cycles; :mod:`repro.obs.http` sits above the service (it imports
the view table) and is loaded lazily.
"""

from repro.obs.logging import (
    JsonLogFormatter,
    StructuredLogger,
    configure_json_logging,
    correlation_id,
    current_context,
    get_logger,
    log_context,
)
from repro.obs.spans import STAGES, FunnelTrace, RunTrace, Span, StageTally, TraceStore

__all__ = [
    "FunnelTrace",
    "JsonLogFormatter",
    "ObservabilityServer",
    "RunTrace",
    "STAGES",
    "Span",
    "StageTally",
    "StructuredLogger",
    "TraceStore",
    "configure_json_logging",
    "correlation_id",
    "current_context",
    "get_logger",
    "log_context",
]


def __getattr__(name: str):
    # ObservabilityServer is imported lazily so that `import repro.obs`
    # (pulled in by the core pipeline for span types) never pays for the
    # http.server machinery on the scan hot path.
    if name == "ObservabilityServer":
        from repro.obs.http import ObservabilityServer

        return ObservabilityServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
