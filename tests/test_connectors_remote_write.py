"""Tests for the remote-write-shaped HTTP ingest receiver."""

import http.client
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _reference_kernels as ref
from repro.connectors import RemoteWriteReceiver, SeriesMapper, parse_remote_write
from repro.service import BackpressurePolicy, StreamingDetectionService
from repro.service import views


def _post(url, payload, expect_error=False):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        if not expect_error:
            raise
        return error.code, json.loads(error.read())


PROMPB_PAYLOAD = {
    "timeseries": [
        {
            "labels": [
                {"name": "__name__", "value": "http_latency_seconds"},
                {"name": "job", "value": "api"},
            ],
            "samples": [
                {"value": 0.12, "timestamp": 1_700_000_000_000},
                {"value": 0.13, "timestamp": 1_700_000_060_000},
            ],
        }
    ]
}

FLAT_PAYLOAD = {
    "series": [
        {
            "name": "queue_depth",
            "labels": {"job": "api"},
            "samples": [[1_700_000_000_000, 4.0], [1_700_000_060_000, 5.0]],
        }
    ]
}


class TestParse:
    def test_prompb_shape(self):
        (frame,) = parse_remote_write(PROMPB_PAYLOAD, SeriesMapper(source="rw"))
        assert len(frame) == 2
        assert frame.timestamps[0] == 1_700_000_000.0  # ms -> s
        assert frame.tags["unit"] == "seconds"
        assert frame.tags["job"] == "api"

    def test_flat_shape(self):
        (frame,) = parse_remote_write(FLAT_PAYLOAD, SeriesMapper(source="rw"))
        assert len(frame) == 2
        assert frame.values[1] == 5.0

    def test_one_frame_per_series_and_none_for_an_empty_one(self):
        payload = {"series": [
            {"name": "a", "samples": [[1000, 1.0], {"timestamp": 2000, "value": 2}]},
            {"name": "b", "samples": []},
            {"name": "c", "samples": [[1000, "0.5"], [2000, "NaN"]]},
        ]}
        first, last = parse_remote_write(payload, SeriesMapper(source="rw"))
        assert (first.name, first.timestamps.tolist(), first.values.tolist()) == (
            "a", [1.0, 2.0], [1.0, 2.0]
        )
        # Numeric strings are how JSON carries NaN: parsed, then judged
        # by admission like any other NaN.
        assert last.values[0] == 0.5 and last.values[1] != last.values[1]

    def test_array_timestamps_are_bit_identical_to_scalar_division(self):
        stamps = [1_700_000_000_001, 1_700_000_060_003, 7, 1_699_999_999_999.5, "1234567"]
        payload = {"series": [{"name": "x", "samples": [[ms, 1.0] for ms in stamps]}]}
        (frame,) = parse_remote_write(payload, SeriesMapper(source="rw"))
        assert frame.timestamps.tolist() == [float(ms) / 1000.0 for ms in stamps]

    @pytest.mark.parametrize("payload", [
        [],  # not an object
        {},  # no timeseries
        {"timeseries": "nope"},
        {"timeseries": [{"labels": [], "samples": []}]},  # no name
        {"timeseries": [{"labels": [{"name": "__name__", "value": "x"}],
                         "samples": [{"value": "NaNish"}]}]},
        {"series": [{"name": "x", "samples": [[1, 2, 3]]}]},
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ValueError):
            list(parse_remote_write(payload, SeriesMapper(source="rw")))


@pytest.fixture
def service():
    service = StreamingDetectionService(
        n_shards=2, queue_capacity=1024,
        backpressure=BackpressurePolicy.BLOCK, batch_size=64,
    )
    yield service
    service.close()


class TestReceiver:
    def test_push_lands_in_service(self, service):
        with RemoteWriteReceiver(service) as receiver:
            status, body = _post(receiver.url, PROMPB_PAYLOAD)
        assert status == 200
        assert body == {"offered": 2, "accepted": 2}
        service.flush()
        assert service.stats().accepted == 2
        counters = service.metrics.snapshot()["counters"]
        assert counters["connectors.remote_write.requests"] == 1
        assert counters["connectors.remote_write.samples"] == 2

    def test_both_payload_shapes_accepted(self, service):
        with RemoteWriteReceiver(service) as receiver:
            assert _post(receiver.url, PROMPB_PAYLOAD)[0] == 200
            assert _post(receiver.url, FLAT_PAYLOAD)[0] == 200
        service.flush()
        assert service.stats().accepted == 4

    def test_malformed_payload_rejected_with_400(self, service):
        with RemoteWriteReceiver(service) as receiver:
            status, body = _post(
                receiver.url, {"timeseries": "garbage"}, expect_error=True
            )
        assert status == 400
        assert "error" in body
        service.flush()
        assert service.stats().accepted == 0
        counters = service.metrics.snapshot()["counters"]
        assert counters["connectors.remote_write.rejected_requests"] == 1

    @pytest.mark.parametrize("bad", [
        {"value": None, "timestamp": 2000},       # numpy would make it NaN
        {"value": True, "timestamp": 2000},       # ... and this 1.0
        {"value": 1.0, "timestamp": None},
        {"value": "fast", "timestamp": 2000},     # non-numeric string
        {"value": 1.0},                            # no timestamp at all
        [2000],                                    # ragged pairs
        [2000, 1.0, 3.0],
        [2000, [1.0]],
        "2000:1.0",
    ])
    def test_one_bad_sample_refuses_the_whole_request(self, service, bad):
        payload = {"series": [
            {"name": "good", "samples": [[1000, 1.0], [2000, 2.0]]},
            {"name": "mixed", "samples": [[1000, 1.0], bad, [3000, 3.0]]},
        ]}
        with RemoteWriteReceiver(service) as receiver:
            status, body = _post(receiver.url, payload, expect_error=True)
        assert status == 400 and "error" in body
        assert service.stats().offered == 0  # nothing offered, "good" included
        assert views.quality(service)[1]["counters"].get("quarantined", 0) == 0

    def test_missing_metric_name_refuses_the_whole_request(self, service):
        payload = {"timeseries": [
            {"labels": [{"name": "__name__", "value": "ok"}],
             "samples": [{"value": 1.0, "timestamp": 1000}]},
            {"labels": [{"name": "job", "value": "api"}],
             "samples": [{"value": 1.0, "timestamp": 1000}]},
        ]}
        with RemoteWriteReceiver(service) as receiver:
            status, _ = _post(receiver.url, payload, expect_error=True)
        assert status == 400
        assert service.stats().offered == 0

    def test_reply_leaves_in_one_write(self, service, socket_writes):
        with RemoteWriteReceiver(service) as receiver:
            assert _post(receiver.url, PROMPB_PAYLOAD)[0] == 200
            assert len(socket_writes) == 1
            assert _post(receiver.url, {"timeseries": 1}, expect_error=True)[0] == 400
            assert len(socket_writes) == 2

    def test_unknown_path_404_wrong_method_405(self, service):
        with RemoteWriteReceiver(service) as receiver:
            base = f"http://{receiver.host}:{receiver.port}"
            status, _ = _post(
                f"{base}/api/v2/write", FLAT_PAYLOAD, expect_error=True
            )
            assert status == 404
            with urllib.request.urlopen(f"{base}/", timeout=5.0) as response:
                index = json.loads(response.read())
            assert "/api/v1/write" in index["endpoints"]

    def test_start_stop_idempotent(self, service):
        receiver = RemoteWriteReceiver(service)
        assert receiver.start() is receiver.start()
        port = receiver.port
        receiver.stop()
        receiver.stop()
        # Port is released: a new receiver can bind it again.
        fresh = RemoteWriteReceiver(service, port=port).start()
        fresh.stop()

    def test_counter_series_tagged_for_rebasing(self, service):
        payload = {
            "series": [
                {"name": "http_requests_total",
                 "samples": [[1_700_000_000_000, 100.0]]}
            ]
        }
        with RemoteWriteReceiver(service) as receiver:
            status, _ = _post(receiver.url, payload)
        assert status == 200
        service.flush()
        assert service.stats().accepted == 1
        # The receiver's default mapper marks it for admission rebasing.
        mapped = SeriesMapper(source="remote_write").map("http_requests_total")
        assert mapped.tags["type"] == "counter"


# ---------------------------------------------------------------------------
# The receiver's reading of a body against json.loads + a per-series parse
# ---------------------------------------------------------------------------


class _Recorder:
    """A service that keeps the frames offered to it."""

    def __init__(self):
        self.frames = []

    def ingest_frames(self, frames):
        self.frames.extend(frames)
        return sum(map(len, frames))


def _send(connection, body):
    connection.request("POST", "/api/v1/write", body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _reference(body):
    """``(200, frames)`` or ``(400, message)``: the receiver's verdict
    before orjson, from ``tests/_reference_kernels.py``."""
    try:
        return 200, ref.remote_write_frames(body, SeriesMapper(source="remote_write"))
    except ValueError as error:
        return 400, str(error)


def _same_frames(got, want):
    assert [(f.name, f.tags) for f in got] == [(f.name, f.tags) for f in want]
    for mine, theirs in zip(got, want):
        assert mine.timestamps.tobytes() == theirs.timestamps.tobytes()
        assert mine.values.tobytes() == theirs.values.tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _number(draw):
    """One JSON number (or numeric string) in one of the forms clients write."""
    form = draw(st.sampled_from(
        ["repr", "exponent", "ms", "int", "big_int", "string", "literal"]
    ))
    if form == "repr":
        return repr(draw(_FINITE))
    if form == "exponent":
        text = f"{draw(_FINITE):.{draw(st.integers(0, 17))}e}"
        return text.upper() if draw(st.booleans()) else text
    if form == "ms":
        return str(draw(st.integers(1_600_000_000_000, 1_800_000_000_000)))
    if form == "int":
        return str(draw(st.integers(-(2**63), 2**64 - 1)))
    if form == "big_int":  # orjson reads these as doubles, json as ints
        return str(draw(st.integers(2**64, 2**90) | st.integers(-(2**90), -(2**63) - 1)))
    if form == "string":
        return json.dumps(repr(draw(st.floats())))
    return draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e999"]))


def _string(draw, text):
    return json.dumps(text, ensure_ascii=draw(st.booleans()))


_NAMES = st.sampled_from(["gcpu", "http_requests_total", "latency_seconds", "q.depth"]) | st.text(
    min_size=1, max_size=8
)
_LABELS = st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)), max_size=3)


@st.composite
def _body(draw):
    """A body in either payload shape, its numbers in mixed forms, and a
    body for each of its entries alone."""
    prompb = draw(st.booleans())
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        name = _string(draw, draw(_NAMES))
        labels = [(_string(draw, k), _string(draw, v)) for k, v in draw(_LABELS)]
        samples = [[draw(_number()), draw(_number())] for _ in range(draw(st.integers(0, 6)))]
        if samples and draw(st.integers(0, 5)) == 0:  # one sample that is no number
            row = draw(st.sampled_from(samples))
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(['"fast"', "null", "true", "[]"]))
        if prompb:
            pairs = [f'{{"name": "__name__", "value": {name}}}'] + [
                f'{{"name": {k}, "value": {v}}}' for k, v in labels
            ]
            rows = [f'{{"value": {v}, "timestamp": {t}}}' for t, v in samples]
            entries.append(f'{{"labels": [{", ".join(pairs)}], "samples": [{", ".join(rows)}]}}')
        else:
            tags = ", ".join(f"{k}: {v}" for k, v in labels)
            rows = ", ".join(f"[{t}, {v}]" for t, v in samples)
            entries.append(f'{{"name": {name}, "labels": {{{tags}}}, "samples": [{rows}]}}')
    key = "timeseries" if prompb else "series"
    return _wrap(key, entries), [_wrap(key, [entry]) for entry in entries]


def _wrap(key, entries):
    return f'{{"{key}": [{", ".join(entries)}]}}'.encode("utf-8")


@pytest.fixture(scope="module")
def recorder():
    recorder = _Recorder()
    with RemoteWriteReceiver(recorder) as receiver:
        connection = http.client.HTTPConnection(receiver.host, receiver.port, timeout=10)
        yield recorder, connection
        connection.close()


class TestReceiverMatchesReference:
    """Every body gets the verdict, message and frames ``json.loads`` and
    a per-series parse gave it, whichever decoder read it."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(drawn=_body())
    def test_frames_equal_the_references(self, recorder, drawn):
        body, alone = drawn
        service, connection = recorder
        service.frames.clear()
        status, reply = _send(connection, body)
        want_status, want = _reference(body)
        assert status == want_status
        if status == 200:
            _same_frames(service.frames, want)
            assert reply == {"offered": sum(map(len, want)), "accepted": sum(map(len, want))}
            return
        assert service.frames == []
        # With more than one fault the message may name another of them.
        faults = [message for code, message in map(_reference, alone) if code == 400]
        assert reply["error"] in [want] + faults
        if len(faults) == 1:
            assert reply == {"error": want}

    def test_big_integers_are_the_same_doubles(self, recorder):
        service, connection = recorder
        service.frames.clear()
        body = (
            b'{"series": [{"name": "x", "samples": [[18446744073709551617, -9223372036854775809],'
            b' [1e3, 340282366920938463463374607431768211457]]}]}'
        )
        assert _send(connection, body)[0] == 200
        _same_frames(service.frames, _reference(body)[1])


def _enumerated():
    nan = b'{"series": [{"name": "x", "samples": [[1000, NaN], [2000, 1.0]]}]}'
    return {
        "nan": nan,
        "infinity": nan.replace(b"NaN", b"Infinity"),
        "minus_infinity_stamp": b'{"series": [{"name": "x", "samples": [[-Infinity, 1.0]]}]}',
        "1e400": nan.replace(b"NaN", b"1e400"),
        "integer_past_double": nan.replace(b"NaN", b"1" * 400),
        "lone_surrogate_name": b'{"series": [{"name": "x\\ud800y", "samples": [[1000, 1.0]]}]}',
        "lone_surrogate_label": b'{"timeseries": [{"labels": [{"name": "__name__", "value": "x"}, '
                                b'{"name": "job", "value": "\\udc00"}], '
                                b'"samples": [{"value": 1, "timestamp": 1}]}]}',
        "invalid_utf8": b'{"series": [{"name": "x\xff", "samples": [[1000, 1.0]]}]}',
        "nan_beside_a_bad_series": b'{"series": [{"name": "a", "samples": [[1000, NaN]]}, '
                                   b'{"name": "b", "samples": [[1000, "fast"]]}]}',
    }


class TestBodiesOrjsonRefuses:
    """NaN / Infinity literals, numbers past the double range, lone
    surrogates and invalid UTF-8 keep the stdlib's verdict: its status,
    its counters and, when refused, nothing offered."""

    @pytest.mark.parametrize("case", sorted(_enumerated()))
    def test_status_counters_and_offers_are_the_references(self, service, case):
        body = _enumerated()[case]
        want_status, want = _reference(body)
        with RemoteWriteReceiver(service) as receiver:
            connection = http.client.HTTPConnection(receiver.host, receiver.port, timeout=10)
            status, reply = _send(connection, body)
            connection.close()
        assert status == want_status
        counters = service.metrics.snapshot()["counters"]
        if status == 200:
            offered = sum(map(len, want))
            assert reply["offered"] == offered == service.stats().offered
            assert counters["connectors.remote_write.requests"] == 1
            assert "connectors.remote_write.rejected_requests" not in counters
        else:
            assert reply == {"error": want}
            assert service.stats().offered == 0
            assert counters["connectors.remote_write.rejected_requests"] == 1
            assert "connectors.remote_write.requests" not in counters

    def test_cases_cover_both_verdicts(self):
        verdicts = {case: _reference(body)[0] for case, body in _enumerated().items()}
        assert verdicts["nan"] == verdicts["lone_surrogate_name"] == 200
        assert verdicts["integer_past_double"] == verdicts["invalid_utf8"] == 400


class TestOneColumnPairPerPost:
    def test_frames_are_slices_of_one_pair(self):
        payload = {"series": [
            {"name": "a", "samples": [[1000, 1.0], [2000, 2.0]]},
            {"name": "b", "samples": []},
            {"name": "c", "samples": [[3000, 3.0]]},
        ]}
        first, last = parse_remote_write(payload, SeriesMapper(source="rw"))
        assert first.values.base is last.values.base is not None
        assert first.timestamps.base is last.timestamps.base is not None

    @pytest.mark.parametrize("bad_stamp", [False, True])
    def test_the_first_bad_series_is_named(self, bad_stamp):
        bad = ["soon", 1.0] if bad_stamp else [1000, "fast"]
        payload = {"series": [
            {"name": "good", "samples": [[1000, 1.0]]},
            {"name": "second", "samples": [[1000, 1.0], bad]},
            {"name": "third", "samples": [[1000, None]]},
        ]}
        with pytest.raises(ValueError, match="non-numeric sample in series 'second'"):
            parse_remote_write(payload, SeriesMapper(source="rw"))


def test_import_repro_leaves_orjson_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    script = "import sys, repro, repro.connectors; print('orjson' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"
