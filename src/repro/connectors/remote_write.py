"""A Prometheus remote-write-shaped HTTP ingest receiver.

The push edge of :mod:`repro.connectors`: a stdlib HTTP server (same
idiom as :class:`repro.obs.http.ObservabilityServer`) accepting the
remote-write *data shape* — a list of labelled time series, each with
``(value, timestamp-in-milliseconds)`` samples — as JSON on ``POST
/api/v1/write``::

    {"timeseries": [
        {"labels": [{"name": "__name__", "value": "http_latency_seconds"},
                    {"name": "job", "value": "api"}],
         "samples": [{"value": 0.12, "timestamp": 1700000000000}]}
    ]}

This mirrors ``prompb.WriteRequest`` field-for-field with JSON in place
of snappy-compressed protobuf (the real wire encoding needs ``snappy``
and ``protobuf``, which this repo deliberately does not depend on; the
JSON form is what ``prom2json``-style shims and test harnesses emit).
A flat convenience form is accepted too — ``{"series": [{"name": ...,
"labels": {...}, "samples": [[timestamp_ms, value], ...]}]}`` — since
that is what most homegrown forwarders actually send.

Every series is mapped through the shared
:class:`~repro.connectors.mapping.SeriesMapper` (name mangling, unit
tags, counter detection — an imported ``*_total`` series gets admission
counter-rebasing automatically), its samples become one
:class:`~repro.tsdb.columnar.SeriesFrame`, and a POST's frames are
offered to the service's normal ingest path in one ``ingest_frames``
call from the handler thread; the service's queue locks make that
safe, and its backpressure policy applies to pushed data exactly as it
does to native ingest.

Responses: ``200`` with a JSON body ``{"offered": n, "accepted": m}``;
``400`` on malformed payloads (with the parse error); ``404`` off-path;
``405`` for non-POST.  Counters land in the service metrics registry
under ``connectors.remote_write.*`` and surface on ``/metrics``.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from repro.connectors.mapping import SeriesMapper
from repro.obs.http import HttpEndpoint, ReplyHandler
from repro.tsdb.columnar import SeriesFrame

__all__ = ["RemoteWriteReceiver", "parse_remote_write"]

#: Reject request bodies above this size (a runaway client must not
#: buffer the receiver into the ground).
MAX_BODY_BYTES = 32 * 1024 * 1024


def _float_column(raw: list) -> np.ndarray:
    """``[float(x) for x in raw]`` as an array, refusing what is not a number.

    ``np.array`` alone would soften the contract: ``None`` becomes NaN
    (and is then quarantined instead of refused) and ``true`` becomes
    1.0.  Numbers convert in bulk; numeric strings (how JSON carries
    ``"NaN"``) go through ``float()``; anything else raises.
    """
    kinds = set(map(type, raw))
    if not kinds <= {int, float}:
        if not kinds <= {int, float, str}:
            raise TypeError("samples must be numbers")
        raw = [float(x) for x in raw]
    return np.array(raw, dtype=np.float64)


def parse_remote_write(payload: dict, mapper: SeriesMapper) -> List[SeriesFrame]:
    """One mapped frame per series of a remote-write-shaped JSON payload.

    Accepts both the prompb-mirrored ``timeseries`` form and the flat
    ``series`` form (see module doc).  Timestamps are Prometheus
    milliseconds and converted to internal seconds.  Series without
    samples yield no frame.

    Raises:
        ValueError: On a structurally malformed payload.  Individual
            bad samples inside a well-formed payload raise too: a push
            protocol is all-or-nothing per request so the client's
            retry logic sees one consistent verdict.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    entries = payload.get("timeseries", payload.get("series"))
    if not isinstance(entries, list):
        raise ValueError("payload needs a 'timeseries' (or 'series') list")
    frames = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("each timeseries entry must be an object")
        labels = entry.get("labels", {})
        if isinstance(labels, list):  # prompb shape: [{name, value}, ...]
            labels = {
                str(pair.get("name")): str(pair.get("value"))
                for pair in labels
                if isinstance(pair, dict)
            }
        elif not isinstance(labels, dict):
            raise ValueError("labels must be a list of {name, value} or a map")
        name = entry.get("name") or labels.get("__name__")
        if not name:
            raise ValueError("timeseries entry has no metric name")
        mapped = mapper.map(name, labels)
        samples = entry.get("samples", [])
        if not isinstance(samples, list):
            raise ValueError("samples must be a list")
        if not samples:
            continue
        try:  # prompb shape: [{value, timestamp}, ...]
            stamps = [sample["timestamp"] for sample in samples]
            values = [sample["value"] for sample in samples]
        except (TypeError, KeyError, IndexError):
            stamps, values = [], []
            for sample in samples:
                if isinstance(sample, dict):
                    sample = (sample.get("timestamp"), sample.get("value"))
                elif not isinstance(sample, (list, tuple)) or len(sample) != 2:
                    raise ValueError(f"unparseable sample: {sample!r}") from None
                stamps.append(sample[0])
                values.append(sample[1])
        try:
            frame = SeriesFrame(
                mapped.name, mapped.tags, _float_column(stamps) / 1000.0, _float_column(values)
            )
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"non-numeric sample in series {name!r}") from None
        frames.append(frame)
    return frames


class _Handler(ReplyHandler):
    server_version = "repro-remote-write/1.0"

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path not in ("/api/v1/write", "/write"):
            self._send_json(404, {"error": f"no such endpoint: {path}"})
            return
        receiver: "RemoteWriteReceiver" = self.server.endpoint
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0 or length > MAX_BODY_BYTES:
                raise ValueError(f"bad Content-Length: {length}")
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            frames = parse_remote_write(payload, receiver.mapper)
        except (ValueError, UnicodeDecodeError, json.JSONDecodeError) as error:
            receiver._count("rejected_requests")
            self._send_json(400, {"error": str(error)})
            return
        offered = sum(len(frame) for frame in frames)
        accepted = receiver.service.ingest_frames(frames)
        receiver._count("requests")
        receiver._count("samples", offered)
        receiver._count("accepted", accepted)
        self._send_json(200, {"offered": offered, "accepted": accepted})

    def do_GET(self) -> None:  # noqa: N802 — health probe convenience
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/":
            self._send_json(
                200, {"service": "repro-remote-write", "endpoints": ["/api/v1/write"]}
            )
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})


class RemoteWriteReceiver(HttpEndpoint):
    """Serves the remote-write ingest endpoint for one service.

    Args:
        service: The ingest target — anything with ``ingest_frames``
            (normally a
            :class:`~repro.service.service.StreamingDetectionService`);
            its ``metrics`` registry, when present, receives the
            ``connectors.remote_write.*`` counters.
        host / port: Bind address; ``port=0`` picks an ephemeral port.

    Lifecycle is :class:`~repro.obs.http.HttpEndpoint`'s: ``start()``
    binds and serves on a daemon thread, ``stop()`` shuts down and
    releases the port, and both are idempotent.
    """

    handler = _Handler
    label = "remote-write"

    def __init__(self, service: object, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(service, host, port)
        self.mapper = SeriesMapper(source="remote_write")

    def _count(self, name: str, amount: int = 1) -> None:
        metrics = getattr(self.service, "metrics", None)
        if metrics is not None:
            metrics.inc(f"connectors.remote_write.{name}", amount)

    @property
    def url(self) -> str:
        return f"{super().url}/api/v1/write"
