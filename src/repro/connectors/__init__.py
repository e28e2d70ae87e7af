"""Real-data connectors: importers, push receivers, and alert sinks.

The boundary layer between external telemetry systems and the
detection service.  Everything here adapts *into* the service's normal
front door (``ingest_frames`` → admission → detection) or *out of* its
normal delivery path (:class:`~repro.runtime.sinks.IncidentSink`) —
connectors never bypass routing, backpressure, data-quality admission,
or per-sink fault isolation.

Inbound:

- :class:`SeriesMapper` / :class:`MappedSeries` — external→internal
  identity mapping (name mangling, unit/type tags, counter detection).
- :class:`CsvImporter` / :class:`JsonLinesImporter` — file ingest.
- :class:`RemoteWriteReceiver` / :func:`parse_remote_write` — a
  Prometheus remote-write-shaped HTTP push endpoint (JSON body).
- :mod:`repro.connectors.mozilla` — the labelled Mozilla/Perfherder
  corpus (arXiv 2503.16332) behind the FP/FN benchmark.

Outbound:

- :class:`WebhookSink` — buffered, retried, deduplicated webhook
  delivery (Slack-shaped payloads via :func:`slack_payload`, keyed on
  the deterministic :func:`alert_id`).
"""

from repro.connectors.importers import CsvImporter, ImportStats, JsonLinesImporter
from repro.connectors.mapping import MappedSeries, SeriesMapper
from repro.connectors.mozilla import (
    MozillaAlert,
    MozillaCorpus,
    MozillaSeries,
    import_corpus,
    load_corpus,
)
from repro.connectors.remote_write import RemoteWriteReceiver, parse_remote_write
from repro.connectors.webhook import WebhookSink, alert_id, slack_payload

__all__ = [
    "CsvImporter",
    "ImportStats",
    "JsonLinesImporter",
    "MappedSeries",
    "SeriesMapper",
    "MozillaAlert",
    "MozillaCorpus",
    "MozillaSeries",
    "import_corpus",
    "load_corpus",
    "RemoteWriteReceiver",
    "parse_remote_write",
    "WebhookSink",
    "alert_id",
    "slack_payload",
]
