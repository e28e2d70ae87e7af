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
from typing import Callable, List, Optional, Sequence

from repro.obs.logging import get_logger
from repro.reporting.report import IncidentReport

__all__ = ["IncidentSink", "CollectingSink", "deliver"]

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
