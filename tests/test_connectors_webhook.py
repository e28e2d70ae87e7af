"""Tests for the buffered, retried, deduplicated webhook sink."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.connectors import WebhookSink, alert_id, slack_payload, webhook
from repro.obs.logging import correlation_id
from repro.reporting import build_report

from test_reporting import make_regression


class FlakyEndpoint:
    """In-process webhook endpoint that fails the first ``fail_first``
    requests (HTTP 503) and records the bodies of accepted ones."""

    def __init__(self, fail_first=0):
        self.fail_first = fail_first
        self.requests = 0
        self.accepted = []
        self._lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(
                    int(self.headers.get("Content-Length", 0))
                )
                with endpoint._lock:
                    endpoint.requests += 1
                    fail = endpoint.requests <= endpoint.fail_first
                    if not fail:
                        endpoint.accepted.append(json.loads(body))
                self.send_response(503 if fail else 200)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"ok")

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/hook"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def report():
    return build_report(make_regression())


class TestPayload:
    def test_golden_slack_shape(self, report):
        payload = slack_payload(report)
        expected_id = correlation_id(
            "svc.sub.gcpu", 700.0, prefix="alert"
        )
        assert payload == {
            "text": "Performance regression in svc.sub.gcpu: +20.00% vs baseline",
            "attachments": [
                {
                    "color": "#c0392b",
                    "title": "Performance regression in svc.sub.gcpu",
                    "fields": [
                        {"title": "Service", "value": "svc", "short": True},
                        {"title": "Path", "value": "short_term", "short": True},
                        {"title": "Magnitude",
                         "value": "+0.0002 (+20.00% of baseline 0.001)",
                         "short": False},
                        {"title": "Change began", "value": "t=700s",
                         "short": True},
                        {"title": "Detection latency", "value": "200s",
                         "short": True},
                        {"title": "Top root-cause candidate",
                         "value": "abc123", "short": False},
                    ],
                    "footer": expected_id,
                    "ts": 900,
                }
            ],
        }

    def test_alert_id_matches_service_correlation_scheme(self, report):
        assert alert_id(report) == correlation_id(
            report.metric_id, report.change_time, prefix="alert"
        )
        assert alert_id(report).startswith("alert-")


class TestDelivery:
    def test_delivers_to_live_endpoint(self, report):
        endpoint = FlakyEndpoint()
        try:
            sink = WebhookSink(endpoint.url)
            sink.deliver(report)
            assert sink.flush(timeout=5.0)
            sink.close()
        finally:
            endpoint.close()
        assert sink.counters["delivered"] == 1
        assert endpoint.accepted[0]["attachments"][0]["footer"] == alert_id(report)

    def test_retries_until_endpoint_recovers(self, report, monkeypatch):
        monkeypatch.setattr(webhook, "BACKOFF", 0.01)
        monkeypatch.setattr(webhook, "BACKOFF_CAP", 0.05)
        endpoint = FlakyEndpoint(fail_first=2)
        try:
            sink = WebhookSink(endpoint.url, max_retries=4)
            sink.deliver(report)
            assert sink.flush(timeout=10.0)
            sink.close()
        finally:
            endpoint.close()
        assert sink.counters["retries"] == 2
        assert sink.counters["delivered"] == 1
        assert sink.counters["failed"] == 0
        assert len(endpoint.accepted) == 1  # delivered exactly once

    def test_gives_up_after_max_retries(self, report, monkeypatch):
        monkeypatch.setattr(webhook, "BACKOFF", 0.01)
        monkeypatch.setattr(webhook, "BACKOFF_CAP", 0.02)
        endpoint = FlakyEndpoint(fail_first=10**6)
        try:
            sink = WebhookSink(endpoint.url, max_retries=2)
            sink.deliver(report)
            sink.flush(timeout=10.0)
            sink.close()
        finally:
            endpoint.close()
        assert sink.counters["failed"] == 1
        assert sink.counters["retries"] == 2
        assert sink.counters["delivered"] == 0

    def test_dead_endpoint_never_raises_into_caller(self, report, monkeypatch):
        monkeypatch.setattr(webhook, "TIMEOUT", 0.2)
        monkeypatch.setattr(webhook, "BACKOFF", 0.01)
        # Port 9 (discard) is never bound: connection refused instantly.
        sink = WebhookSink("http://127.0.0.1:9/hook", max_retries=1)
        sink.deliver(report)  # must not raise, must not block
        sink.close(timeout=5.0)
        assert sink.counters["enqueued"] == 1
        assert sink.counters["failed"] == 1

    def test_dedup_on_alert_id(self, report):
        endpoint = FlakyEndpoint()
        try:
            sink = WebhookSink(endpoint.url)
            sink.deliver(report)
            sink.deliver(report)  # same (metric, change time)
            assert sink.flush(timeout=5.0)
            sink.close()
        finally:
            endpoint.close()
        assert sink.counters["enqueued"] == 1
        assert sink.counters["deduped"] == 1
        assert len(endpoint.accepted) == 1

    def test_queue_overflow_evicts_oldest(self, monkeypatch):
        import time

        gate = threading.Event()
        posted = []

        def poster(url, body, timeout):
            gate.wait(5.0)  # stall the drain so the queue backs up
            posted.append(json.loads(body))

        monkeypatch.setattr(webhook, "_http_post", poster)
        monkeypatch.setattr(webhook, "CAPACITY", 2)
        sink = WebhookSink("http://example.invalid/hook")
        reports = []
        for change_time in (100.0, 200.0, 300.0, 400.0):
            regression = make_regression()
            regression.change_time = change_time
            reports.append(build_report(regression))

        sink.deliver(reports[0])
        for _ in range(500):  # wait until the drain thread holds it
            if sink.pending and not sink._queue:
                break
            time.sleep(0.01)
        sink.deliver(reports[1])
        sink.deliver(reports[2])
        sink.deliver(reports[3])  # overflows: reports[1] (oldest) evicted
        assert sink.counters["evicted"] == 1
        gate.set()
        assert sink.flush(timeout=5.0)
        sink.close()
        footers = [p["attachments"][0]["footer"] for p in posted]
        assert footers == [alert_id(reports[0]), alert_id(reports[2]),
                           alert_id(reports[3])]

    def test_metrics_mirrored_to_registry(self, report):
        from repro.service.metrics import MetricsRegistry

        registry = MetricsRegistry()
        endpoint = FlakyEndpoint()
        try:
            sink = WebhookSink(endpoint.url)
            sink.metrics = registry
            sink.deliver(report)
            assert sink.flush(timeout=5.0)
            sink.close()
        finally:
            endpoint.close()
        counters = registry.snapshot()["counters"]
        assert counters["sink.webhook.enqueued"] == 1
        assert counters["sink.webhook.delivered"] == 1

    def test_close_on_dead_endpoint_is_bounded(self, report, monkeypatch):
        import time

        monkeypatch.setattr(webhook, "TIMEOUT", 0.2)
        monkeypatch.setattr(webhook, "BACKOFF", 0.5)
        monkeypatch.setattr(webhook, "BACKOFF_CAP", 5.0)
        sink = WebhookSink("http://127.0.0.1:9/hook", max_retries=8)
        sink.deliver(report)
        started = time.monotonic()
        sink.close(timeout=0.5)
        # flush() gives up at its timeout and close() interrupts the
        # backoff ladder; a dead endpoint must not hang shutdown.
        assert time.monotonic() - started < 5.0
