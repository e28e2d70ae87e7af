"""Tests for repro.obs.http (the /metrics, /healthz, /status endpoints)."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.obs import STAGES, ObservabilityServer
from repro.obs.http import PROMETHEUS_CONTENT_TYPE
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import views
from repro.tsdb import WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0


def _config():
    return DetectionConfig(
        name="test",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


def _make_samples(seed=3, regress_index=3, n_series=8):
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(n_series):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == regress_index:
            values[700:] += 0.0003
        samples.extend(
            Sample(
                f"svc.sub{index}.gcpu",
                tick * INTERVAL,
                float(values[tick]),
                {"metric": "gcpu"},
            )
            for tick in range(N_TICKS)
        )
    return samples


def _service(**kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("queue_capacity", 2**16)
    kwargs.setdefault("backpressure", BackpressurePolicy.BLOCK)
    sink = CollectingSink()
    service = StreamingDetectionService(sinks=[sink], **kwargs)
    service.register_monitor("gcpu", _config(), series_filter={"metric": "gcpu"})
    return service, sink


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, dict(response.headers), response.read().decode()


@pytest.fixture(scope="module")
def advanced_service():
    service, sink = _service()
    service.ingest_many(_make_samples())
    reports = service.advance_to(N_TICKS * INTERVAL)
    with ObservabilityServer(service) as server:
        yield service, sink, server, reports
    service.close()


class TestMetricsEndpoint:
    def test_prometheus_text_exposition(self, advanced_service):
        _service_, _sink, server, _reports = advanced_service
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        # Golden structural lines: counters, gauges, and the PR 2
        # advance-latency histogram plus incremental-cache counters.
        assert "# TYPE scheduler_scans counter" in body
        assert "# TYPE service_shards gauge" in body
        assert "# TYPE service_shard_advance_seconds histogram" in body
        assert 'service_shard_advance_seconds_bucket{le="+Inf"}' in body
        assert "service_shard_advance_seconds_count" in body
        assert "pipeline_incremental_hits" in body
        assert "pipeline_incremental_misses" in body
        assert "service_reports_delivered 1" in body

    def test_every_reply_leaves_in_one_write(self, advanced_service, socket_writes):
        # A server of its own: the shared one's handler threads were set
        # up before this test's write counter was installed.
        with ObservabilityServer(advanced_service[0]) as server:
            for path in ("/metrics", "/healthz", "/status", "/nowhere"):
                before = len(socket_writes)
                try:
                    urllib.request.urlopen(server.url + path, timeout=5.0).read()
                except urllib.error.HTTPError as error:
                    error.read()
                assert len(socket_writes) - before == 1, path

    def test_matches_in_process_render(self, advanced_service):
        service, _sink, server, _reports = advanced_service
        _status, _headers, body = _get(server.url + "/metrics")
        assert body == views.metrics(service)[1]


class TestHealthzEndpoint:
    def test_healthy_service_answers_200(self, advanced_service):
        service, _sink, server, _reports = advanced_service
        status, _headers, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["saturated_shards"] == 0
        assert payload["clock"] == N_TICKS * INTERVAL
        assert len(payload["shards"]) == service.n_shards
        for shard in payload["shards"]:
            assert shard["pending"] < shard["capacity"]
            assert not shard["saturated"]

    def test_checkpoint_age_reported_after_checkpoint(self, tmp_path):
        service, _sink = _service(n_shards=1)
        try:
            assert views.healthz(service)[1]["checkpoint"]["age_seconds"] is None
            service.checkpoint(str(tmp_path / "ckpt"))
            age = views.healthz(service)[1]["checkpoint"]["age_seconds"]
            assert age is not None and 0.0 <= age < 60.0
        finally:
            service.close()

    def test_saturated_queue_degrades_to_503(self):
        service, _sink = _service(
            n_shards=1,
            queue_capacity=8,
            backpressure=BackpressurePolicy.REJECT,
        )
        try:
            # Overfill the only shard's queue without flushing: offers
            # beyond capacity are rejected, pending == capacity.
            for tick in range(20):
                service.ingest("svc.sub0.gcpu", float(tick), 1.0, {"metric": "gcpu"})
            health = views.healthz(service)[1]
            assert health["status"] == "degraded"
            assert health["saturated_shards"] == 1
            assert health["shards"][0]["pending"] == 8
            with ObservabilityServer(service) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server.url + "/healthz")
                assert excinfo.value.code == 503
                payload = json.loads(excinfo.value.read())
                assert payload["status"] == "degraded"
                # Draining the queue restores health on the same server.
                service.flush()
                status, _headers, body = _get(server.url + "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
        finally:
            service.close()


class TestStatusEndpoint:
    def test_funnel_matches_service_state(self, advanced_service):
        service, _sink, server, reports = advanced_service
        status, headers, body = _get(server.url + "/status")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["funnel"] == dict(service.funnel.counts)
        assert payload["reported"] == len(reports) == 1
        assert payload["scans"] == service.stats().scans
        assert payload["monitors"] == ["gcpu"]

    def test_funnel_trace_telescopes_and_matches_funnel(self, advanced_service):
        service, _sink, _server, _reports = advanced_service
        payload = views.status(service)[1]
        trace = payload["funnel_trace"]
        assert trace["telescopes"]
        stages = {row["stage"]: row for row in trace["stages"]}
        assert list(stages) == list(STAGES)
        # Windowed trace covers every scan (capacity not exceeded), so
        # its per-stage survivors equal the cumulative funnel exactly.
        for stage in STAGES:
            assert stages[stage]["outputs"] == payload["funnel"][stage]
        # Telescoping view: stage N+1 consumed exactly stage N's output.
        ordered = [stages[stage] for stage in STAGES]
        for earlier, later in zip(ordered, ordered[1:]):
            assert later["inputs"] == earlier["outputs"]

    def test_index_and_unknown_paths(self, advanced_service):
        _service_, _sink, server, _reports = advanced_service
        status, _headers, body = _get(server.url + "/")
        assert status == 200
        assert set(json.loads(body)["endpoints"]) == {
            "/metrics",
            "/healthz",
            "/status",
            "/faults",
            "/quality",
        }
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404


class TestServerLifecycle:
    def test_start_stop_idempotent_and_ephemeral_port(self):
        service, _sink = _service(n_shards=1)
        try:
            server = ObservabilityServer(service, port=0)
            server.start()
            server.start()  # idempotent
            assert server.running
            assert server.port > 0
            assert str(server.port) in server.url
            server.stop()
            server.stop()  # idempotent
            assert not server.running
        finally:
            service.close()


class TestEndToEndAcceptance:
    """ISSUE 3 acceptance: a deterministic scenario where /status funnel
    telescopes and matches the final detection funnel exactly, over HTTP,
    in both serial and parallel execution."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_status_funnel_equals_detection_report(self, workers):
        service, sink = _service(n_shards=2, workers=workers)
        try:
            service.ingest_many(_make_samples())
            reports = service.advance_to(N_TICKS * INTERVAL)
            assert [r.metric_id for r in reports] == ["svc.sub3.gcpu"]
            with ObservabilityServer(service) as server:
                payload = json.loads(_get(server.url + "/status")[2])
            assert payload["funnel"] == dict(service.funnel.counts)
            assert payload["funnel_trace"]["telescopes"]
            stages = {
                row["stage"]: row for row in payload["funnel_trace"]["stages"]
            }
            for stage in STAGES:
                assert stages[stage]["outputs"] == service.funnel.counts[stage]
            assert payload["reported"] == len(sink.reports) == 1
        finally:
            service.close()


class TestHandlerErrorPaths:
    """Regression tests for the catch-all error handler.

    The bug: a renderer raising *after* headers were sent used to make
    the catch-all answer again with a 500 — two responses on one
    keep-alive connection, desynchronizing every request behind it.
    """

    def test_error_before_headers_answers_500_and_survives(self, monkeypatch):
        service, _sink = _service(n_shards=1)
        try:
            def boom(_service):
                raise RuntimeError("renderer exploded")

            monkeypatch.setitem(views.VIEWS, "/status", boom)
            with ObservabilityServer(service) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(server.url + "/status", timeout=5.0)
                assert excinfo.value.code == 500
                assert "renderer exploded" in json.loads(
                    excinfo.value.read()
                )["error"]
                # The server is still healthy for the next request.
                with urllib.request.urlopen(
                    server.url + "/healthz", timeout=5.0
                ) as response:
                    assert response.status == 200
        finally:
            service.close()

    def test_error_after_headers_closes_instead_of_double_responding(
        self, monkeypatch
    ):
        import socket

        from repro.obs import http as obs_http

        def partial_then_raise(self, status, payload):
            # Headers and a full body go out the wire...
            self._send_text(200, "partial", "text/plain")
            # ...and only then does the reply fail.
            raise RuntimeError("late failure")

        monkeypatch.setattr(obs_http._Handler, "_send_json", partial_then_raise)
        service, _sink = _service(n_shards=1)
        try:
            with ObservabilityServer(service) as server:
                connection = socket.create_connection(
                    (server.host, server.port), timeout=5.0
                )
                try:
                    connection.sendall(
                        b"GET /quality HTTP/1.1\r\nHost: t\r\n"
                        b"Connection: keep-alive\r\n\r\n"
                    )
                    connection.settimeout(5.0)
                    received = b""
                    while True:
                        try:
                            chunk = connection.recv(4096)
                        except socket.timeout:  # pragma: no cover - slack
                            break
                        if not chunk:
                            break  # server closed the connection: good
                        received += chunk
                finally:
                    connection.close()
            # Exactly one response went out — the 200 that was already
            # in flight — and the connection was closed, not answered a
            # second time with a 500.
            assert received.count(b"HTTP/1.1") == 1
            assert received.startswith(b"HTTP/1.1 200")
            assert b"500" not in received.split(b"\r\n", 1)[0]
        finally:
            service.close()


def _run_for(seconds, *loops):
    """Run each ``loop(stop)`` on a thread of its own for ``seconds``,
    switching threads every 20 us instead of every 5 ms so that a race a
    few bytecodes wide is met many times; returns what any of them raised."""
    stop = threading.Event()
    raised = []
    interval = sys.getswitchinterval()

    def guarded(loop):
        try:
            loop(stop)
        except Exception as error:  # the assertion reads this list
            raised.append(repr(error))
            stop.set()

    threads = [threading.Thread(target=guarded, args=(loop,)) for loop in loops]
    sys.setswitchinterval(2e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    return raised


class TestScrapeUnderLiveIngest:
    """A view takes no queue lock, so it reads owners that producers and
    a serial advance are writing.  The bugs: ``AdmissionController.admitted``
    iterated the live per-series dict (``dictionary changed size during
    iteration`` out of ``stats()``, ``/status`` and ``/quality`` — a 500)
    and ``unquarantine`` released outside the lock ``add`` runs under
    (the quarantine store's total drifted from its per-series counts for
    good)."""

    NAN = float("nan")

    def test_every_scrape_answers_while_series_appear_and_scans_run(self):
        service, _sink = _service(n_shards=2)
        answers = {}

        def produce(stop):
            born = 0
            while not stop.is_set():
                born += 1
                base = born * 10.0
                service.ingest_many([
                    Sample(f"live.s{born}.gcpu", base + k, self.NAN if k == 2 else 1.0,
                           {"metric": "gcpu"})
                    for k in range(4)
                ])

        def advance(stop):
            clock = 0.0
            while not stop.is_set():
                clock += 6_000.0
                service.advance_to(clock)

        def scrape(stop):
            while not stop.is_set():
                for path in views.VIEWS:
                    try:
                        status = _get(server.url + path)[0]
                    except urllib.error.HTTPError as error:
                        status, body = error.code, error.read().decode()
                        if status != 503:  # say what broke, not just that it did
                            status = (status, body)
                    answers.setdefault(path, set()).add(status)
                service.stats()

        try:
            with ObservabilityServer(service) as server:
                raised = _run_for(2.0, produce, advance, scrape, scrape, scrape)
        finally:
            service.close()
        assert raised == []
        assert sorted(answers) == sorted(views.VIEWS)
        for path, statuses in answers.items():
            assert statuses <= {200, 503}, (path, statuses)

    def test_quarantine_ledgers_agree_after_racing_unquarantine(self):
        service, _sink = _service(n_shards=2)
        names = [f"rot.s{index}.gcpu" for index in range(6)]

        def rot(stop):
            tick = 0.0
            while not stop.is_set():
                tick += 1.0
                for name in names:
                    service.ingest(name, tick, self.NAN, {"metric": "gcpu"})

        def release(stop):
            while not stop.is_set():
                for name in names:
                    service.unquarantine(name)

        try:
            raised = _run_for(2.0, rot, rot, release)
            with ObservabilityServer(service) as server:
                quality = json.loads(_get(server.url + "/quality")[2])
        finally:
            service.close()
        assert raised == []
        assert len(quality["shards"]) == 2
        for shard in quality["shards"]:
            store = shard["quarantine"]
            listed = sum(row["count"] for row in store["series"].values())
            assert store["total"] == listed, shard["shard"]
        assert quality["quarantined_points"] == sum(
            shard["quarantine"]["total"] for shard in quality["shards"]
        )
