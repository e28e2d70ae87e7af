"""End-to-end tests for the data-quality admission layer in the service.

The acceptance drill from the ISSUE: a fleet stream damaged with
reordering, gaps, NaN bursts, and a counter rollover must produce
**byte-identical** incident reports to the clean run (no false alerts,
no missed regressions), with the quarantined counts visible on
``/quality`` and preserved across checkpoint/restore under parallel
(``workers=4``) shard advances.
"""

import json
import math
import urllib.request

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.fleet import DirtyDataSpec, dirty_stream
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
COUNTER = "svc.requests.count"
N_SHARDS = 4
ROUND_TICKS = 200


def small_config():
    return DetectionConfig(
        name="quality",
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
    samples = []
    for tick in range(N_TICKS):
        for name in SERIES:
            samples.append(
                Sample(name, tick * INTERVAL, float(table[name][tick]),
                       {"metric": "gcpu"})
            )
        # Integer-valued cumulative counter: admission's rollover
        # rebasing reconstructs it bit-exactly.
        samples.append(
            Sample(COUNTER, tick * INTERVAL, float(7 * tick),
                   {"metric": "requests", "type": "counter"})
        )
    return samples


def dirty_spec():
    # 9 series, one sample each per tick: a shuffle block of 3 ticks
    # displaces each series by <= 3 positions (reorder window is 16).
    return DirtyDataSpec(
        seed=5,
        reorder_block=3 * (len(SERIES) + 1),
        nan_series=(SERIES[0], SERIES[REGRESS_INDEX]),
        gap_series=(SERIES[1], SERIES[2]),
        gap_fraction=0.05,
        rollover_series=(COUNTER,),
    )


def make_service(sink, workers=4):
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        workers=workers,
        sinks=[sink],
        queue_capacity=2**14,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}
    )
    return service


def drive(service, samples):
    """Ingest/advance in timestamp rounds.

    Rounds are cut by *timestamp*, not stream position, so the clean
    and dirty runs advance (and therefore scan) at identical instants
    with identical data visible — delivery order within a round is
    whatever the stream says it is.
    """
    span = ROUND_TICKS * INTERVAL
    rounds = int(math.ceil(N_TICKS / ROUND_TICKS))
    for index in range(rounds):
        begin, end = index * span, (index + 1) * span
        batch = [s for s in samples if begin <= s.timestamp < end]
        service.ingest_many(batch)
        service.advance_to(end)
    service.flush()
    return rounds * span


def report_bytes(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def tsdb_state(service):
    state = {}
    for shard_id in range(service.n_shards):
        for series in service.shard_database(shard_id):
            state[series.name] = (
                series.timestamps.tolist(), series.values.tolist()
            )
    return state


@pytest.fixture(scope="module")
def clean_run():
    samples = make_stream()
    sink = CollectingSink()
    service = make_service(sink)
    try:
        drive(service, samples)
        assert [r.metric_id for r in sink.reports] == [SERIES[REGRESS_INDEX]]
        quality = views.quality(service)[1]
        # Clean data: admission is transparent.
        assert quality["quarantined_points"] == 0
        assert quality["counters"]["repaired"] == 0
        assert quality["counters"]["counter_resets"] == 0
        return samples, report_bytes(sink.reports), tsdb_state(service)
    finally:
        service.close()


class TestDirtyDataDrill:
    def test_dirty_run_is_byte_identical_to_clean(self, clean_run):
        samples, reference, clean_tsdb = clean_run
        spec = dirty_spec()
        dirty = dirty_stream(samples, spec)
        assert dirty != samples
        sink = CollectingSink()
        service = make_service(sink)
        try:
            drive(service, dirty)

            # No false alerts, no missed regressions — byte-identical.
            assert report_bytes(sink.reports) == reference

            # The TSDB itself is reconstructed exactly for every series
            # that did not genuinely lose points.
            dirty_tsdb = tsdb_state(service)
            for name, arrays in clean_tsdb.items():
                if name in spec.gap_series:
                    continue
                assert dirty_tsdb[name] == arrays, name

            # The damage actually happened and was absorbed.
            quality = views.quality(service)[1]
            counters = quality["counters"]
            n_nans = sum(1 for s in dirty if s.value != s.value)
            assert n_nans > 0
            assert quality["quarantined_points"] == n_nans
            assert counters["counter_resets"] == 1
            assert counters["reordered"] > 0
            assert counters["duplicates"] == 0

            # Gap series lost points but stayed below the alert surface.
            for name in spec.gap_series:
                assert len(dirty_tsdb[name][0]) < len(clean_tsdb[name][0])
        finally:
            service.close()


class TestQualityEndpoint:
    def test_quarantines_visible_over_http(self):
        sink = CollectingSink()
        service = make_service(sink, workers=1)
        try:
            for tick in range(20):
                service.ingest(SERIES[0], tick * INTERVAL, 0.001,
                               {"metric": "gcpu"})
            for tick in range(3):
                service.ingest(SERIES[0], (20 + tick) * INTERVAL, math.nan,
                               {"metric": "gcpu"})
            with ObservabilityServer(service) as server:
                with urllib.request.urlopen(
                    server.url + "/quality", timeout=5.0
                ) as response:
                    payload = json.loads(response.read())
            assert payload["quarantined_points"] == 3
            shard = next(
                s for s in payload["shards"]
                if s["quarantine"]["total"] == 3
            )
            offender = shard["quarantine"]["series"][SERIES[0]]
            assert offender == {"count": 3}
            assert shard["scores"][SERIES[0]] == pytest.approx(20 / 23)
        finally:
            service.close()


class TestCheckpointRestore:
    def test_quarantine_survives_checkpoint_restore_parallel(self, tmp_path):
        """Quarantine state and admission counters ride the checkpoint,
        with parallel (workers=4) advances in between."""
        samples = make_stream()[: 9 * 400]
        spec = dirty_spec()
        dirty = dirty_stream(samples, spec)
        sink = CollectingSink()
        service = make_service(sink, workers=4)
        ckpt = str(tmp_path / "ckpt")
        try:
            service.ingest_many(dirty)
            service.advance_to(400 * INTERVAL)
            before = views.quality(service)[1]
            assert before["quarantined_points"] > 0
            service.checkpoint(ckpt)
        finally:
            service.close()

        restored = StreamingDetectionService.restore(
            ckpt, sinks=[CollectingSink()], workers=4
        )
        try:
            after = views.quality(restored)[1]
            assert after["counters"] == before["counters"]
            assert after["quarantined_points"] == before["quarantined_points"]
            shard_quarantines = {
                shard["shard"]: shard["quarantine"]["series"]
                for shard in before["shards"]
            }
            for shard in after["shards"]:
                assert shard["quarantine"]["series"] == (
                    shard_quarantines[shard["shard"]]
                )
            # The restored admission layer is live, not a fossil.
            restored.ingest(SERIES[0], 500 * INTERVAL, math.nan,
                            {"metric": "gcpu"})
            assert (
                views.quality(restored)[1]["quarantined_points"]
                == before["quarantined_points"] + 1
            )
        finally:
            restored.close()


class TestUnquarantine:
    def test_release_clears_series_and_records_event(self):
        sink = CollectingSink()
        service = make_service(sink, workers=1)
        try:
            for tick in range(4):
                service.ingest(SERIES[0], tick * INTERVAL, math.nan,
                               {"metric": "gcpu"})
            assert views.quality(service)[1]["quarantined_points"] == 4
            assert service.unquarantine(SERIES[0]) == 4
            assert views.quality(service)[1]["quarantined_points"] == 0
            counters = service.metrics.snapshot()["counters"]
            assert counters["quality.released"] == 4.0
            assert any(e.kind == "series_unquarantined" for e in service.events.events())
            assert service.unquarantine(SERIES[0]) == 0
        finally:
            service.close()

    def test_release_keeps_the_cumulative_count_and_resets_the_score(self):
        """A release drops what is attributed to the series, not the
        cumulative ``quarantined`` count; its score starts over."""
        service = make_service(CollectingSink(), workers=1)
        try:
            for tick in range(6):
                value = math.nan if tick % 2 else 0.001
                service.ingest(SERIES[0], tick * INTERVAL, value, {"metric": "gcpu"})
            admission = service._shards[service.router.shard_for(SERIES[0])].worker.admission
            assert admission.quality_score(SERIES[0]) == pytest.approx(0.5)
            assert service.unquarantine(SERIES[0]) == 3
            quality = views.quality(service)[1]
            assert (quality["counters"]["quarantined"], quality["quarantined_points"]) == (3, 0)
            assert admission.quality_score(SERIES[0]) == 1.0
            for shard in quality["shards"]:
                assert shard["scores"] == {} and shard["quarantine"]["series"] == {}
            service.ingest(SERIES[0], 6 * INTERVAL, math.nan, {"metric": "gcpu"})
            quality = views.quality(service)[1]
            assert (quality["counters"]["quarantined"], quality["quarantined_points"]) == (4, 1)
            assert admission.quality_score(SERIES[0]) == pytest.approx(3 / 4)
        finally:
            service.close()


class TestPrometheusNaming:
    """ISSUE satellite: quality metrics follow the text-format naming
    conventions so /metrics stays parseable by the golden test."""

    def test_quality_counters_render_and_parse(self):
        sink = CollectingSink()
        service = make_service(sink, workers=1)
        try:
            service.ingest(SERIES[0], 0.0, math.nan, {"metric": "gcpu"})
            service.ingest(SERIES[0], INTERVAL, -1.0, {"metric": "gcpu"})
            text = views.metrics(service)[1]
            assert "# TYPE quality_quarantined counter" in text
            assert "quality_quarantined 1" in text
            assert "# TYPE quality_repaired counter" in text
            for line in text.splitlines():
                if line.startswith("# TYPE "):
                    _, _, name, kind = line.split(" ")
                    assert kind in ("counter", "gauge", "histogram")
                else:
                    name = line.split("{", 1)[0].split(" ", 1)[0]
                    float(line.rsplit(" ", 1)[1])  # value parses
                # Prometheus metric-name charset.
                assert name[0].isalpha() or name[0] == "_"
                assert all(c.isalnum() or c == "_" for c in name)
        finally:
            service.close()
