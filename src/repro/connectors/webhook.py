"""A reliable webhook alert sink (Slack-shaped JSON payloads).

The alerting edge of :mod:`repro.connectors`: deliver incident reports
to an HTTP endpoint — a Slack incoming webhook, PagerDuty shim, or any
ticketing bridge — without ever letting that endpoint's health leak
back into detection.  The contract the chaos drills assert:

- **Never block an advance.**  :meth:`WebhookSink.deliver` only
  enqueues: it computes the alert's correlation id, dedups, appends to
  a *bounded* in-memory queue, and returns.  All network I/O happens on
  one background daemon thread.
- **Never fail an advance.**  A slow, flaky, or dead endpoint shows up
  as retries and (eventually) ``failed`` counts on this sink — never as
  an exception in the scan loop.  (Every sink call is additionally
  isolated by the one fan-out, :func:`repro.runtime.sinks.deliver`.)
- **Retry with exponential backoff.**  Each queued alert is attempted
  up to ``1 + max_retries`` times, sleeping ``BACKOFF * 2**attempt``
  (capped at :data:`BACKOFF_CAP`) between attempts, so a webhook
  endpoint restarting mid-run receives the alert when it comes back.
- **Dedup on the blake2b alert id.**  The same (metric, change time)
  incident enqueues at most once per sink lifetime — the deterministic
  :func:`~repro.obs.logging.correlation_id` every other layer already
  joins on — so monitor overlap or replay can't double-page.
- **Bounded everything.**  The queue holds :data:`CAPACITY` alerts; beyond
  that the *oldest* undelivered alert is evicted (freshest-page-wins,
  counted under ``evicted``).  The dedup set is bounded the same way
  (:data:`DEDUP_CAPACITY` ids).

The payload is Slack's incoming-webhook shape (``text`` plus one
``attachments`` entry with short fields) built by :func:`slack_payload`.
Posting uses stdlib ``urllib`` (:func:`_http_post`).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Deque, Dict, Optional, Tuple
from collections import deque

from repro.obs.logging import correlation_id, get_logger
from repro.reporting.report import IncidentReport
from repro.runtime.sinks import IncidentSink

__all__ = ["WebhookSink", "slack_payload", "alert_id"]

_log = get_logger("repro.connectors.webhook")

#: Remembered alert ids per sink (oldest forgotten first).
DEDUP_CAPACITY = 4096
#: Per-request socket timeout (seconds).
TIMEOUT = 2.0
#: Delivery-queue depth; overflow evicts the oldest undelivered alert.
CAPACITY = 256
#: Base seconds of the exponential inter-attempt backoff.
BACKOFF = 0.05
#: Upper bound on one backoff sleep (seconds).
BACKOFF_CAP = 2.0


def alert_id(report: IncidentReport) -> str:
    """The deterministic correlation id for one incident.

    Identical to the id the service logs and ledgers under — blake2b
    over (metric, change time) — so a webhook message, its log lines,
    and the re-alert ledger entry all carry the same key.
    """
    return correlation_id(report.metric_id, report.change_time, prefix="alert")


def slack_payload(report: IncidentReport) -> Dict[str, Any]:
    """Render one report as a Slack incoming-webhook message."""
    top_cause = (
        report.root_causes[0].change_id if report.root_causes else "none ranked"
    )
    return {
        "text": (
            f"Performance regression in {report.metric_id}: "
            f"{report.relative_magnitude:+.2%} vs baseline"
        ),
        "attachments": [
            {
                "color": "#c0392b",
                "title": f"Performance regression in {report.metric_id}",
                "fields": [
                    {"title": "Service", "value": report.service or "(unknown)",
                     "short": True},
                    {"title": "Path", "value": report.kind, "short": True},
                    {"title": "Magnitude",
                     "value": (f"{report.magnitude:+.6g} "
                               f"({report.relative_magnitude:+.2%} of baseline "
                               f"{report.baseline:.6g})"),
                     "short": False},
                    {"title": "Change began", "value": f"t={report.change_time:.0f}s",
                     "short": True},
                    {"title": "Detection latency",
                     "value": f"{report.detection_latency:.0f}s", "short": True},
                    {"title": "Top root-cause candidate", "value": top_cause,
                     "short": False},
                ],
                "footer": alert_id(report),
                "ts": int(report.detected_at),
            }
        ],
    }


def _http_post(url: str, body: bytes, timeout: float) -> None:
    """POST ``body`` as JSON; raises on network errors and non-2xx."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        status = getattr(response, "status", 200)
        if not 200 <= status < 300:
            raise urllib.error.HTTPError(
                url, status, f"webhook answered {status}", response.headers, None
            )


class WebhookSink(IncidentSink):
    """Buffered, retried, deduplicated webhook delivery (see module doc).

    Args:
        url: Endpoint to POST payloads to.
        max_retries: Re-attempts after the first failed post.

    Assign a registry-like object (``inc(name, n)``) to :attr:`metrics`
    to mirror the sink counters under ``sink.webhook.*``.
    """

    def __init__(self, url: str, max_retries: int = 4) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.url = url
        self.max_retries = max_retries
        self.metrics: Optional[Any] = None
        self._queue: Deque[Tuple[str, bytes]] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Event()
        self._stop = threading.Event()
        self._idle = threading.Condition(self._lock)
        self._seen: Deque[str] = deque()
        self._seen_set: set = set()
        self._thread: Optional[threading.Thread] = None
        self._in_flight = False
        self.counters: Dict[str, int] = {
            "enqueued": 0,
            "delivered": 0,
            "retries": 0,
            "failed": 0,
            "deduped": 0,
            "evicted": 0,
        }

    # -- producer side (the scan loop) -----------------------------------

    def deliver(self, report: IncidentReport) -> None:
        """Enqueue one report for background delivery (non-blocking)."""
        key = alert_id(report)
        body = json.dumps(slack_payload(report), sort_keys=True).encode("utf-8")
        with self._lock:
            if key in self._seen_set:
                self._count("deduped")
                return
            self._seen_set.add(key)
            self._seen.append(key)
            while len(self._seen) > DEDUP_CAPACITY:
                self._seen_set.discard(self._seen.popleft())
            if len(self._queue) >= CAPACITY:
                evicted_key, _ = self._queue.popleft()
                self._count("evicted")
                _log.warning(
                    "webhook queue full; evicting oldest undelivered alert",
                    url=self.url, evicted=evicted_key,
                )
            self._queue.append((key, body))
            self._count("enqueued")
            self._ensure_thread()
        self._wakeup.set()

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        if self.metrics is not None:
            self.metrics.inc(f"sink.webhook.{name}", amount)

    def _ensure_thread(self) -> None:
        """Start the delivery thread lazily (lock held)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._drain, name="repro-webhook-sink", daemon=True
            )
            self._thread.start()

    @property
    def pending(self) -> int:
        """Alerts buffered (or in flight) but not yet resolved."""
        with self._lock:
            return len(self._queue) + bool(self._in_flight)

    # -- consumer side (the delivery thread) -----------------------------

    def _drain(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                if not self._queue:
                    self._idle.notify_all()
                    self._wakeup.clear()
            if not self._queue:
                # Park until a new alert arrives or close() stops us.
                self._wakeup.wait(timeout=0.5)
                continue
            with self._lock:
                if not self._queue:
                    continue
                key, body = self._queue.popleft()
                self._in_flight = True
            try:
                self._attempt(key, body)
            finally:
                with self._lock:
                    self._in_flight = False
                    self._idle.notify_all()

    def _attempt(self, key: str, body: bytes) -> None:
        """Post one alert with exponential-backoff retries."""
        for attempt in range(self.max_retries + 1):
            if self._stop.is_set() and attempt > 0:
                break  # closing: don't sit out the remaining backoff
            try:
                _http_post(self.url, body, TIMEOUT)
            except Exception as error:
                if attempt >= self.max_retries:
                    self._count("failed")
                    _log.warning(
                        "webhook delivery failed permanently",
                        url=self.url, alert=key, attempts=attempt + 1,
                        error=str(error),
                    )
                    return
                self._count("retries")
                delay = min(BACKOFF * (2.0 ** attempt), BACKOFF_CAP)
                # Interruptible sleep: close() must not wait out a
                # backoff ladder on a dead endpoint.
                if self._stop.wait(timeout=delay):
                    break
            else:
                self._count("delivered")
                return
        self._count("failed")

    # -- lifecycle --------------------------------------------------------

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until the queue drains (or ``timeout``); True on empty."""
        with self._idle:
            remaining = timeout
            while (self._queue or self._in_flight) and remaining > 0:
                started = time.monotonic()
                self._idle.wait(timeout=min(remaining, 0.1))
                remaining -= time.monotonic() - started
            return not self._queue and not self._in_flight

    def close(self, timeout: float = 5.0) -> None:
        """Drain (best effort, bounded by ``timeout``) and stop."""
        self.flush(timeout=timeout)
        self._stop.set()
        self._wakeup.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None
