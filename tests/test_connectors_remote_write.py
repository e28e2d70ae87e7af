"""Tests for the remote-write-shaped HTTP ingest receiver."""

import json
import urllib.error
import urllib.request

import pytest

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
