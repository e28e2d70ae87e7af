"""Incident-report sinks.

A sink receives the :class:`~repro.reporting.report.IncidentReport` for
every regression the scheduler's monitors report — the integration point
for ticket filing, paging, or test collection.

Delivery contract: a sink's :meth:`~IncidentSink.deliver` may raise (a
full disk, a dead endpoint), so nothing calls it directly: reports go
out through :func:`deliver`, the one fan-out, which isolates each sink —
a broken one never blocks the others or the scan loop that produced the
report.  The streaming service counts the failures it is told of under
``service.sinks.errors``.  Sinks that hold resources (file handles,
delivery threads) release them in :meth:`~IncidentSink.close`, which
the service calls on shutdown.

For a network sink with buffered, retried delivery see
:class:`repro.connectors.WebhookSink`.
"""

from __future__ import annotations

import abc
import json
import logging
import threading
from typing import IO, Callable, List, Optional, Sequence, Union

from repro.obs.logging import get_logger
from repro.reporting.report import IncidentReport, format_report

__all__ = ["IncidentSink", "CollectingSink", "LoggingSink", "JsonLinesSink", "deliver"]

_log = get_logger("repro.runtime.sinks")


class IncidentSink(abc.ABC):
    """Receives incident reports as monitors produce them."""

    @abc.abstractmethod
    def deliver(self, report: IncidentReport) -> None:
        """Handle one report (file a ticket, page, record ...)."""

    def close(self) -> None:
        """Release held resources (handles, threads).  Default: no-op."""


def deliver(
    report: IncidentReport,
    sinks: Sequence[IncidentSink],
    on_error: Optional[Callable[[IncidentSink, IncidentReport, Exception], None]] = None,
) -> int:
    """Hand ``report`` to every sink; returns how many took it.

    A raising sink (full disk, dead endpoint, bad plugin) is logged and
    reported to ``on_error(sink, report, error)``; the remaining sinks
    still get this report and the caller's loop goes on.
    """
    delivered = 0
    for sink in sinks:
        try:
            sink.deliver(report)
        except Exception as error:
            _log.exception(
                "sink delivery failed",
                sink=type(sink).__name__,
                metric=report.metric_id,
                error=str(error),
            )
            if on_error is not None:
                on_error(sink, report, error)
        else:
            delivered += 1
    return delivered


class CollectingSink(IncidentSink):
    """Accumulates reports in memory (tests, batch analysis)."""

    def __init__(self) -> None:
        self.reports: List[IncidentReport] = []

    def deliver(self, report: IncidentReport) -> None:
        self.reports.append(report)

    def __len__(self) -> int:
        return len(self.reports)


class LoggingSink(IncidentSink):
    """Writes formatted reports to a logger (default: ``repro.runtime``)."""

    def __init__(self, logger: Optional[logging.Logger] = None) -> None:
        self._logger = logger or logging.getLogger("repro.runtime")

    def deliver(self, report: IncidentReport) -> None:
        self._logger.warning("%s", format_report(report))


class JsonLinesSink(IncidentSink):
    """Appends one JSON object per report to a file (or file-like).

    The durable integration format: downstream ticketing/alerting
    systems tail the file.  Writes are line-atomic under a lock so the
    scheduler's parallel scans can share one sink.

    In path mode the file is opened once, on first delivery, and the
    handle is held across reports (reopening per report costs a
    path-resolution and fd churn on every alert and hides permission
    errors until delivery time).  A failed write closes the handle so
    the next delivery retries from a fresh open — after an ENOSPC or a
    rotated file, recovery needs a new fd, not the poisoned one.  The
    error still propagates: :func:`deliver` logs it and tells its
    caller (the service counts it under ``service.sinks.errors``).
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        self._lock = threading.Lock()
        if isinstance(destination, str):
            self._path: Optional[str] = destination
            self._stream: Optional[IO[str]] = None
            self._owns_stream = True
        else:
            self._path = None
            self._stream = destination
            self._owns_stream = False

    def deliver(self, report: IncidentReport) -> None:
        line = json.dumps(report.to_dict(), sort_keys=True)
        with self._lock:
            if self._stream is None:
                assert self._path is not None
                self._stream = open(self._path, "a", encoding="utf-8")
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except Exception:
                if self._owns_stream:
                    self._drop_stream()
                raise

    def _drop_stream(self) -> None:
        """Close and forget the handle (lock held); best-effort close."""
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.close()
            except Exception:
                pass

    def close(self) -> None:
        """Close the held file handle (path mode; streams stay open —
        the caller owns them)."""
        with self._lock:
            if self._owns_stream:
                self._drop_stream()
