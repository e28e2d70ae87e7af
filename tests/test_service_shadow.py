"""End-to-end tests for shadow-mode challenger detectors in the service.

The tentpole contract: challengers registered via
``register_monitor(..., shadow=[...])`` score every full scan but never
alert — the primary incident reports are **byte-identical** with or
without them, on both the serial and parallel (``workers=4``) advance
paths; their funnel tallies surface on ``detectors_snapshot()`` / the
``/detectors`` endpoint / ``detector_*`` Prometheus counters, and ride
shard checkpoints.
"""

import json
import math
import urllib.request

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.obs import ObservabilityServer
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import views
from repro.tsdb import WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0
CHANGE_TICK = 700
REGRESS_INDEX = 3
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]
N_SHARDS = 4
ROUND_TICKS = 200

#: Cheap deterministic challengers; the tuple form exercises the
#: parameterized spec path end to end.
SHADOW = ("mad", ("threshold", {"level": 0.00106}))
SHADOW_IDS = ["mad-v1-6a16dc1f", "threshold-v1-238595f7"]


def small_config():
    return DetectionConfig(
        name="shadow",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


def make_stream(seed=7):
    rng = np.random.default_rng(seed)
    table = {}
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == REGRESS_INDEX:
            values[CHANGE_TICK:] += 0.0003
        table[name] = values
    return [
        Sample(name, tick * INTERVAL, float(table[name][tick]), {"metric": "gcpu"})
        for tick in range(N_TICKS)
        for name in SERIES
    ]


def make_service(sink, workers=1, shadow=None):
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        workers=workers,
        sinks=[sink],
        queue_capacity=2**14,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}, shadow=shadow
    )
    return service


def drive(service, samples):
    span = ROUND_TICKS * INTERVAL
    rounds = int(math.ceil(N_TICKS / ROUND_TICKS))
    for index in range(rounds):
        begin, end = index * span, (index + 1) * span
        service.ingest_many([s for s in samples if begin <= s.timestamp < end])
        service.advance_to(end)
    service.flush()


def report_bytes(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


@pytest.fixture(scope="module")
def plain_run():
    samples = make_stream()
    sink = CollectingSink()
    service = make_service(sink)
    try:
        drive(service, samples)
        assert [r.metric_id for r in sink.reports] == [SERIES[REGRESS_INDEX]]
        snapshot = views.detectors(service)[1]
        assert snapshot == {"enabled": False, "detectors": []}
        return samples, report_bytes(sink.reports)
    finally:
        service.close()


def run_with_shadow(samples, workers):
    sink = CollectingSink()
    service = make_service(sink, workers=workers, shadow=SHADOW)
    try:
        drive(service, samples)
        return (
            report_bytes(sink.reports),
            views.detectors(service)[1],
            views.metrics(service)[1],
        )
    finally:
        service.close()


class TestAlertInert:
    def test_serial_shadow_is_byte_identical(self, plain_run):
        samples, reference = plain_run
        reports, snapshot, _ = run_with_shadow(samples, workers=1)
        assert reports == reference
        assert snapshot["enabled"]
        assert [row["id"] for row in snapshot["detectors"]] == SHADOW_IDS
        for row in snapshot["detectors"]:
            assert row["tally"]["scans"] > 0
            assert row["tally"]["errors"] == 0

    def test_parallel_shadow_is_byte_identical(self, plain_run):
        """Shadow state rides worker round-trips: the parallel run's
        reports match the serial reference and the tallies match the
        serial run's exactly (scored once per scan, no double counts)."""
        samples, reference = plain_run
        serial_reports, serial_snapshot, _ = run_with_shadow(samples, workers=1)
        parallel_reports, parallel_snapshot, metrics_text = run_with_shadow(
            samples, workers=4
        )
        assert parallel_reports == reference == serial_reports
        assert parallel_snapshot == serial_snapshot
        # Tallies flow into Prometheus via the sanitized counter names.
        assert "detector_" in metrics_text


class TestDetectorsEndpoint:
    def test_snapshot_served_over_http(self, plain_run):
        samples, _ = plain_run
        sink = CollectingSink()
        service = make_service(sink, shadow=SHADOW)
        try:
            drive(service, samples)
            with ObservabilityServer(service) as server:
                with urllib.request.urlopen(
                    server.url + "/detectors", timeout=5.0
                ) as response:
                    payload = json.loads(response.read())
                with urllib.request.urlopen(
                    server.url + "/", timeout=5.0
                ) as response:
                    index = json.loads(response.read())
            assert "/detectors" in index["endpoints"]
            assert payload == json.loads(
                json.dumps(views.detectors(service)[1], sort_keys=True,
                           default=str)
            )
            assert payload["enabled"]
        finally:
            service.close()

    def test_shadowless_service_reports_disabled(self):
        sink = CollectingSink()
        service = make_service(sink)
        try:
            with ObservabilityServer(service) as server:
                with urllib.request.urlopen(
                    server.url + "/detectors", timeout=5.0
                ) as response:
                    payload = json.loads(response.read())
            assert payload == {"enabled": False, "detectors": []}
        finally:
            service.close()


class TestCheckpointRestore:
    def test_tallies_survive_checkpoint_restore_parallel(self, tmp_path):
        """Shadow tallies ride the scheduler pickle through a checkpoint
        and keep accruing (same IDs) after restore under workers=4."""
        samples = make_stream()
        cut = 1_000 * INTERVAL
        sink = CollectingSink()
        service = make_service(sink, workers=4, shadow=SHADOW)
        ckpt = str(tmp_path / "ckpt")
        try:
            service.ingest_many([s for s in samples if s.timestamp < cut])
            service.advance_to(cut)  # first scan lands at tick 900
            before = views.detectors(service)[1]
            assert before["enabled"]
            assert all(row["tally"]["scans"] > 0 for row in before["detectors"])
            service.checkpoint(ckpt)
        finally:
            service.close()

        restored = StreamingDetectionService.restore(
            ckpt, sinks=[CollectingSink()], workers=4
        )
        try:
            after = views.detectors(restored)[1]
            assert after == before
            # The restored scorer is live: replay the stream tail across
            # the next rerun boundary and the tallies grow on the same
            # detector IDs.
            restored.ingest_many(
                [s for s in samples if s.timestamp >= restored.clock]
            )
            restored.advance_to(N_TICKS * INTERVAL + 6_000.0)
            final = views.detectors(restored)[1]
            assert [row["id"] for row in final["detectors"]] == SHADOW_IDS
            assert all(
                final_row["tally"]["scans"] > before_row["tally"]["scans"]
                for final_row, before_row in zip(
                    final["detectors"], before["detectors"]
                )
            )
        finally:
            restored.close()
