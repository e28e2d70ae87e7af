#!/usr/bin/env python
"""CI connector smoke: corpus in one end, webhooks out the other.

End-to-end over the real-data edge added with ``repro.connectors``:
generates the Mozilla slice (``scripts/make_mozilla_slice.py``, into a
temporary directory), imports it through the series mapper and the admission layer, runs
scheduled detection over it, and delivers every incident to a
:class:`~repro.connectors.WebhookSink` posting to an in-process HTTP
endpoint.  Gates on:

- a clean import: no bad rows, every offered sample accepted;
- a perfect corpus score: every labeled regression caught (no FNs),
  nothing else reported (no FPs) — F1 == 1.0;
- a reliable alerting edge: every delivered report reaches the webhook
  endpoint exactly once, with the payload footer carrying the same
  correlation id the service would log.

Exit status 0 on success, 1 with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/run_connector_smoke.py
"""

import argparse
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

from bench_mozilla_corpus import run_corpus, score_corpus  # noqa: E402
from repro.connectors import WebhookSink, alert_id  # noqa: E402


class RecordingEndpoint:
    """Minimal in-process webhook receiver recording accepted bodies."""

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

    def close(self):
        self._server.shutdown()
        self._server.server_close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slice", default=None,
                        help="corpus slice to replay (default: a generated one)")
    args = parser.parse_args(argv)

    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    endpoint = RecordingEndpoint()
    sink = WebhookSink(endpoint.url, max_retries=2)
    try:
        corpus, stats, reports, labels = run_corpus(args.slice, sinks=[sink])
        sink.flush(timeout=10.0)
    finally:
        sink.close()
        endpoint.close()

    scores = score_corpus(reports, labels)
    n_labels = sum(len(times) for times in labels.values())
    print(
        f"corpus: {len(corpus.series)} series, {stats.offered} samples, "
        f"{n_labels} labeled regressions"
    )
    print(
        f"score: tp={scores['tp']} fp={scores['fp']} fn={scores['fn']} "
        f"f1={scores['f1']:.3f}"
    )
    tally = sink.counters
    print(f"webhook: {dict(sorted(tally.items()))}")

    check(stats.bad_rows == 0, "import: no bad rows")
    check(stats.accepted == stats.offered > 0,
          "admission: every offered sample accepted")
    check(scores["fn"] == 0, "detection: every labeled regression caught")
    check(scores["fp"] == 0, "detection: no false positives")
    check(scores["f1"] == 1.0, "score: F1 == 1.0")
    check(tally["enqueued"] == len(reports),
          "webhook: every report enqueued (no dedup collisions)")
    check(tally["delivered"] == tally["enqueued"] and tally["failed"] == 0,
          "webhook: every alert delivered")
    check(len(endpoint.accepted) == len(reports),
          "endpoint: one request per report")
    expected_ids = sorted(alert_id(report) for report in reports)
    received_ids = sorted(
        body["attachments"][0]["footer"] for body in endpoint.accepted
    )
    check(received_ids == expected_ids,
          "payload: footers carry the service correlation ids")

    if failures:
        print(f"\nconnector smoke FAILED ({len(failures)} violations)")
        return 1
    print("\nconnector smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
