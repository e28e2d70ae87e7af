"""The pull-based observability surface (stdlib ``http.server``).

:class:`ObservabilityServer` routes one table,
:data:`repro.service.views.VIEWS` (``path -> view(service) -> (status,
payload)``), for a running
:class:`~repro.service.service.StreamingDetectionService`; an endpoint
is a row of that table, and this module reaches into no service or
shard internals itself.  The rows today:

- ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of the
  self-metrics registry;
- ``GET /healthz`` — liveness/readiness JSON; ``200`` when healthy and
  ``503`` when degraded, so load balancers and Kubernetes probes can
  consume it directly;
- ``GET /status``, ``/faults``, ``/quality`` — the funnel,
  operational-event and data-quality views (what each carries is its
  function's docstring in :mod:`repro.service.views`).

``GET /`` returns a small JSON index of the endpoints.  The server runs
on a daemon thread (one handler thread per request), binds an ephemeral
port when ``port=0``, and never blocks detection — nor waits for it: no
view takes a shard's queue lock (a serial advance holds it for a whole
scan); only the registry, the trace ring and the event log are read
under their own, short locks.

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
from typing import Optional

from repro.obs.logging import get_logger
from repro.service.views import VIEWS

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
            if path in VIEWS:
                status, payload = VIEWS[path](service)
                if isinstance(payload, str):  # /metrics, the one text view
                    self._send_text(status, payload, PROMETHEUS_CONTENT_TYPE)
                else:
                    self._send_json(status, payload)
            elif path == "/":
                self._send_json(200, {"service": "repro-fbdetect", "endpoints": list(VIEWS)})
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
    """Serves :data:`repro.service.views.VIEWS` for a service.

    Args:
        service: The service the views fold over.
        host / port: Bind address (see :class:`HttpEndpoint`).
    """

    handler = _Handler
    label = "obs"
