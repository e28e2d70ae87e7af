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

A body is decoded with ``orjson`` (a runtime dependency, imported when
a receiver is built, so ``import repro`` needs only numpy and scipy).
A body orjson refuses — ``NaN`` / ``Infinity`` literals, numbers past
the double range, lone surrogates, invalid UTF-8 — or whose payload
the parse refuses is read again by the stdlib ``json`` module, whose
reading gives the verdict and the 400's message.  The two readings
differ in one place only: orjson reads an integer past 64 bits as the
nearest double, which is the float64 the json module's integer becomes
in a sample column, but stringifies differently where it is a label
value or a series name.

Every series is mapped through the shared
:class:`~repro.connectors.mapping.SeriesMapper` (name mangling, unit
tags, counter detection — an imported ``*_total`` series gets admission
counter-rebasing automatically).  A POST's samples are converted as one
pair of columns and each series' :class:`~repro.tsdb.columnar.SeriesFrame`
is a slice of it; the frames are offered to the service's normal ingest
path in one ``ingest_frames`` call from the handler thread; the
service's queue locks make that safe, and its backpressure policy
applies to pushed data exactly as it does to native ingest.

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


_NOT_NUMERIC = (TypeError, ValueError, OverflowError)


def parse_remote_write(payload: dict, mapper: SeriesMapper) -> List[SeriesFrame]:
    """One mapped frame per series of a remote-write-shaped JSON payload.

    Accepts both the prompb-mirrored ``timeseries`` form and the flat
    ``series`` form (see module doc).  Timestamps are Prometheus
    milliseconds and converted to internal seconds.  Series without
    samples yield no frame.  Every series' samples go into one pair of
    columns, converted at once; each frame is a slice of that pair.

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
    series = []  # (external name, mapped, end row) per non-empty entry
    stamps: list = []
    values: list = []
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
            entry_stamps = [sample["timestamp"] for sample in samples]
            entry_values = [sample["value"] for sample in samples]
        except (TypeError, KeyError, IndexError):
            entry_stamps, entry_values = [], []
            for sample in samples:
                if isinstance(sample, dict):
                    sample = (sample.get("timestamp"), sample.get("value"))
                elif not isinstance(sample, (list, tuple)) or len(sample) != 2:
                    raise ValueError(f"unparseable sample: {sample!r}") from None
                entry_stamps.append(sample[0])
                entry_values.append(sample[1])
        stamps += entry_stamps
        values += entry_values
        series.append((name, mapped, len(stamps)))
    try:
        seconds, readings = _float_column(stamps) / 1000.0, _float_column(values)
    except _NOT_NUMERIC:
        name = _first_bad(series, stamps, values)
        raise ValueError(f"non-numeric sample in series {name!r}") from None
    frames = []
    start = 0
    for _, mapped, end in series:
        rows = slice(start, end)
        frames.append(SeriesFrame(mapped.name, mapped.tags, seconds[rows], readings[rows]))
        start = end
    return frames


def _first_bad(series: list, stamps: list, values: list) -> object:
    """The external name of the first series whose samples do not convert."""
    start = 0
    for name, _, end in series:
        try:
            _float_column(stamps[start:end])
            _float_column(values[start:end])
        except _NOT_NUMERIC:
            return name
        start = end


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
            body = self.rfile.read(length)
            try:
                frames = parse_remote_write(receiver._decode(body), receiver.mapper)
            except ValueError:
                # A body orjson refuses (NaN / Infinity literals, numbers
                # past the double range, lone surrogates, bad UTF-8) or a
                # payload the parse refuses is judged again from the json
                # module's reading: the verdict and its message are its.
                frames = parse_remote_write(json.loads(body.decode("utf-8")), receiver.mapper)
        except ValueError as error:  # UnicodeDecodeError and JSONDecodeError included
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
        # Imported here, not with the module: ``import repro`` needs only
        # numpy and scipy.
        import orjson

        self._decode = orjson.loads

    def _count(self, name: str, amount: int = 1) -> None:
        metrics = getattr(self.service, "metrics", None)
        if metrics is not None:
            metrics.inc(f"connectors.remote_write.{name}", amount)

    @property
    def url(self) -> str:
        return f"{super().url}/api/v1/write"
