"""The pull-based observability surface (stdlib ``http.server``).

:class:`ObservabilityServer` exposes a running
:class:`~repro.service.service.StreamingDetectionService` on these
endpoints:

- ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of the
  self-metrics registry: ingest/backpressure counters, the per-shard
  advance-latency histograms, incremental-cache hit counters, pipeline
  stage timings.
- ``GET /healthz`` — liveness/readiness JSON: per-shard queue depth vs.
  the backpressure threshold, flusher liveness, checkpoint age.  Answers
  ``200`` when healthy and ``503`` when degraded, so load balancers and
  Kubernetes probes can consume it directly.
- ``GET /status`` — the operator's funnel snapshot: cumulative
  :class:`~repro.core.pipeline.FunnelCounters`, the live
  :class:`~repro.obs.spans.FunnelTrace` over retained run traces, and
  recent per-run spans.
- ``GET /faults`` — the fault-injection view: the active
  :class:`~repro.faults.FaultPlan` with per-spec seen/fired counters,
  plus recent fault/degradation events.  During chaos drills this is
  how an operator tells injected failures from real ones; without an
  injector it reports ``{"enabled": false}``.
- ``GET /quality`` — the data-quality view: aggregate admission
  counters, per-shard quarantine snapshots (worst offenders, reason
  codes, quality scores), and stale-evicted series.  With the quality
  layer disabled it reports ``{"enabled": false}``.
- ``GET /detectors`` — the shadow-detector view: per-challenger funnel
  tallies (scans, fired, agreement with the incumbent, errors) merged
  across shards, keyed by deterministic param-hash detector IDs.  With
  no challengers registered it reports ``{"enabled": false}``.

``GET /`` returns a small JSON index of the endpoints.  The server runs
on a daemon thread (one handler thread per request), binds an ephemeral
port when ``port=0``, and never blocks detection: every endpoint reads
snapshots under the service's own locks.

Example::

    server = ObservabilityServer(service, port=0)
    server.start()
    print(server.url)         # e.g. http://127.0.0.1:49152
    ...
    server.stop()
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro.obs.logging import get_logger

__all__ = ["HttpEndpoint", "ObservabilityServer", "PROMETHEUS_CONTENT_TYPE", "ReplyHandler"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

_log = get_logger("repro.obs.http")


class ReplyHandler(BaseHTTPRequestHandler):
    """What the HTTP surfaces share: keep-alive, structured request
    logs, and replies that leave in one write."""

    protocol_version = "HTTP/1.1"

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        """Send status line, headers and body in ONE write.

        Written apart (``end_headers()``, then the body) they are two
        small segments: Nagle holds the second until the client — with
        nothing to send — gets round to its delayed ACK, ~40 ms a reply.
        """
        payload = body.encode("utf-8")
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        self.log_request(status)
        self._response_started = True
        self.wfile.write(head.encode("latin-1") + payload)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_text(
            status, json.dumps(payload, sort_keys=True, default=str), JSON_CONTENT_TYPE
        )

    def log_message(self, format: str, *args: object) -> None:
        # Route http.server's stderr chatter through structured logging.
        _log.debug("http request", detail=format % args, client=self.client_address[0])


def _healthz(service) -> Tuple[int, dict]:
    health = service.healthz()
    return (200 if health.get("status") == "ok" else 503), health


def _faults(service) -> Tuple[int, dict]:
    snapshot = service.faults_snapshot()
    payload: dict = {"enabled": snapshot is not None}
    if snapshot is not None:
        payload["plan"] = snapshot
    payload["events"] = [event.to_dict() for event in service.events.events()]
    return 200, payload


#: The JSON endpoints: path -> view of the service, ``(status, payload)``.
#: ``GET /`` lists ``/metrics`` (the one text endpoint) and these keys.
_JSON_VIEWS: Dict[str, Callable[[object], Tuple[int, dict]]] = {
    "/healthz": _healthz,
    "/status": lambda service: (200, service.status_snapshot()),
    "/faults": _faults,
    "/quality": lambda service: (200, service.quality_snapshot()),
    "/detectors": lambda service: (200, service.detectors_snapshot()),
}


class _Handler(ReplyHandler):
    """Routes the observability endpoints.

    The owning :class:`ObservabilityServer` carries the service
    reference; handler instances are per-request and stateless.
    """

    server_version = "repro-obs/1.0"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.server.endpoint.service
        # Whether a response line/headers already went down the wire.
        # If a renderer raises *after* that point, sending a second
        # response would interleave two HTTP messages on one keep-alive
        # connection and desync every request behind it — the only safe
        # recovery is to drop the connection.
        self._response_started = False
        try:
            if path == "/metrics":
                self._send_text(200, service.render_metrics(), PROMETHEUS_CONTENT_TYPE)
            elif path in _JSON_VIEWS:
                self._send_json(*_JSON_VIEWS[path](service))
            elif path == "/":
                self._send_json(200, {
                    "service": "repro-fbdetect",
                    "endpoints": ["/metrics", *_JSON_VIEWS],
                })
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})
        except Exception as error:
            _log.exception("observability endpoint failed", path=path)
            if self._response_started:
                # Headers (and possibly part of a body) are already out:
                # close the connection instead of double-responding.
                self.close_connection = True
            else:
                try:
                    self._send_json(500, {"error": str(error)})
                except Exception:  # pragma: no cover - client went away
                    self.close_connection = True


class HttpEndpoint:
    """Lifecycle of a stdlib HTTP server on a daemon thread.

    Subclasses name their ``handler`` class; a handler reaches the
    endpoint object (and its ``service``) as ``self.server.endpoint``.

    Args:
        service: What the endpoint serves or feeds.
        host: Bind address (default loopback; bind ``0.0.0.0``
            explicitly to expose beyond the machine).
        port: TCP port; ``0`` picks an ephemeral free port (read it
            back from :attr:`port` after :meth:`start`).
    """

    handler: type = BaseHTTPRequestHandler
    label = "http"

    def __init__(self, service: object, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self):
        """Bind and serve on a daemon thread (idempotent).

        Raises:
            OSError: When the requested port cannot be bound.
        """
        if self._server is not None:
            return self
        self._server = ThreadingHTTPServer((self.host, self._requested_port), self.handler)
        self._server.endpoint = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-{self.label}-{self.port}",
            daemon=True,
        )
        self._thread.start()
        _log.info("http endpoint started", endpoint=self.label, url=self.url)
        return self

    def stop(self) -> None:
        """Shut down and release the port (idempotent)."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        _log.info("http endpoint stopped", endpoint=self.label, url=self.url)
        self._server = None
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class ObservabilityServer(HttpEndpoint):
    """Serves ``/metrics`` and the JSON views for a service.

    Args:
        service: The service whose ``render_metrics()``, ``healthz()``
            and ``*_snapshot()`` renderers the endpoints return.
        host / port: Bind address (see :class:`HttpEndpoint`).
    """

    handler = _Handler
    label = "obs"
