"""Chaos drill: the webhook endpoint dies mid-run.

The alerting edge's failure contract, asserted end-to-end: a service
streaming a regression-bearing workload to both a
:class:`~repro.runtime.CollectingSink` and a
:class:`~repro.connectors.WebhookSink` whose endpoint is killed in the
middle of the run must

- deliver **exactly the same** incident reports (metric, change time)
  as a clean run with no webhook at all — a dying alert receiver never
  changes what detection reports;
- complete every shard advance without an exception — webhook I/O never
  runs on the scan path;
- account for every enqueued alert on the sink's counters (delivered
  before the kill, failed after — none silently vanish).
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.config import DetectionConfig
from repro.connectors import WebhookSink, webhook
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.tsdb import WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]
REGRESSED = {SERIES[2], SERIES[5]}  # two planted regressions
ADVANCE_EVERY = 100  # ticks per ingest/advance round
KILL_ROUND = 6  # the endpoint dies before this advance round


def small_config():
    return DetectionConfig(
        name="chaos-webhook",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0,
                           extended=6_000.0),
        long_term=False,
    )


class RecordingEndpoint:
    """In-process webhook receiver that can be killed mid-run."""

    def __init__(self):
        self.accepted = []
        self._lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(
                    int(self.headers.get("Content-Length", 0))
                )
                with endpoint._lock:
                    endpoint.accepted.append(json.loads(body))
                self.send_response(200)
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

    def kill(self):
        self._server.shutdown()
        self._server.server_close()


def make_stream(seed=23):
    rng = np.random.default_rng(seed)
    ticks = []
    for tick in range(N_TICKS):
        batch = []
        for name in SERIES:
            value = float(rng.normal(0.001, 0.00002))
            if name in REGRESSED and tick >= 700:
                value += 0.0004
            batch.append(Sample(name, tick * INTERVAL, value,
                                {"metric": "gcpu"}))
        ticks.append(batch)
    return ticks


def run_stream(ticks, webhook_sink=None, on_round=None):
    """Drive one full run; returns the delivered report keys."""
    collecting = CollectingSink()
    sinks = [collecting] if webhook_sink is None else [collecting, webhook_sink]
    service = StreamingDetectionService(
        n_shards=4, sinks=sinks, queue_capacity=1 << 16,
        backpressure=BackpressurePolicy.BLOCK, batch_size=1024,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}
    )
    round_index = 0
    for start in range(0, N_TICKS, ADVANCE_EVERY):
        for batch in ticks[start:start + ADVANCE_EVERY]:
            service.ingest_many(batch)
        round_index += 1
        if on_round is not None:
            on_round(round_index)
        # Must never raise, whatever the webhook endpoint is doing.
        service.advance_to(min(start + ADVANCE_EVERY, N_TICKS) * INTERVAL)
    counters = dict(service.metrics.snapshot()["counters"])
    service.close()
    keys = [(r.metric_id, r.change_time) for r in collecting.reports]
    return keys, counters


def test_webhook_endpoint_dies_mid_run(monkeypatch):
    monkeypatch.setattr(webhook, "TIMEOUT", 0.5)
    monkeypatch.setattr(webhook, "BACKOFF", 0.01)
    monkeypatch.setattr(webhook, "BACKOFF_CAP", 0.05)
    ticks = make_stream()

    # Clean reference: no webhook at all.
    clean_keys, _ = run_stream(ticks)
    assert len(clean_keys) >= 2  # both planted regressions caught

    # Chaos run: the endpoint is killed partway through the stream.
    endpoint = RecordingEndpoint()
    sink = WebhookSink(endpoint.url, max_retries=2)

    def on_round(round_index):
        if round_index == KILL_ROUND:
            endpoint.kill()

    chaos_keys, counters = run_stream(ticks, webhook_sink=sink,
                                      on_round=on_round)
    sink.close(timeout=10.0)

    # The alert set is identical: a dead alert receiver never changes
    # what detection reports, and no advance failed along the way.
    assert chaos_keys == clean_keys

    # Every enqueued alert is accounted for: delivered before the kill
    # or failed after it — never silently lost, never blocking.
    tally = sink.counters
    assert tally["enqueued"] == len(clean_keys)
    assert tally["delivered"] + tally["failed"] == tally["enqueued"]
    assert tally["delivered"] == len(endpoint.accepted)

    # No sink exception leaked into the service delivery loop: the
    # webhook sink enqueues without raising, so the service counts
    # every delivery as a success.
    assert counters.get("service.sinks.errors", 0) == 0


def test_webhook_endpoint_dead_from_the_start(monkeypatch):
    """Same stream against an endpoint that never existed."""
    monkeypatch.setattr(webhook, "TIMEOUT", 0.2)
    monkeypatch.setattr(webhook, "BACKOFF", 0.01)
    monkeypatch.setattr(webhook, "BACKOFF_CAP", 0.02)
    ticks = make_stream()
    clean_keys, _ = run_stream(ticks)

    sink = WebhookSink("http://127.0.0.1:9/hook", max_retries=1)
    chaos_keys, _ = run_stream(ticks, webhook_sink=sink)
    sink.close(timeout=10.0)

    assert chaos_keys == clean_keys
    assert sink.counters["enqueued"] > 0  # the dead endpoint really was exercised
    assert sink.counters["failed"] == sink.counters["enqueued"]
    assert sink.counters["enqueued"] == len(clean_keys)
