"""Chaos drill for shadow-mode challengers.

The detector-registry contract under fire: a service carrying a shadow
challenger through a full :meth:`~repro.faults.FaultPlan.chaos` schedule
(worker kills, advance hangs, flusher deaths) still delivers **byte-identical** incident reports to a
fault-free run *without* any challenger — shadow scoring is alert-inert
even while shards crash and restore — and the funnel tallies ride the
checkpoint into a restored service where they keep accruing.

``REPRO_CHAOS_SEED`` narrows the drill to one seed, as in the service
chaos drills.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import views
from repro.tsdb import WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0
CHANGE_TICK = 700
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]
N_SHARDS = 4
ADVANCE_EVERY = 200
CHECKPOINT_ROUNDS = (1, 3)
SETTLE_LIMIT = 40

SHADOW = ("mad",)
SHADOW_IDS = ["mad-v1-6a16dc1f"]


def _seeds():
    override = os.environ.get("REPRO_CHAOS_SEED")
    if override is not None:
        return [int(override)]
    return [0]


def small_config():
    return DetectionConfig(
        name="chaos-shadow",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


def make_stream(seed, n_ticks=N_TICKS, first_tick=0, regress_index=3):
    rng = np.random.default_rng(seed)
    table = {}
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, n_ticks)
        if index == regress_index and first_tick < CHANGE_TICK:
            values[CHANGE_TICK - first_tick :] += 0.0003
        table[name] = values
    samples = [
        Sample(
            name,
            (first_tick + step) * INTERVAL,
            float(table[name][step]),
            {"metric": "gcpu"},
        )
        for step in range(n_ticks)
        for name in SERIES
    ]
    samples.sort(key=lambda s: s.timestamp)
    return samples


def make_service(sink, injector=None, shadow=None):
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        workers=4,
        sinks=[sink],
        queue_capacity=2**14,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
        fault_injector=injector,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}, shadow=shadow
    )
    return service


def drive(service, samples, ckpt_dir):
    service.start(flush_interval=0.005)
    chunk = ADVANCE_EVERY * len(SERIES)
    rounds = [
        samples[begin : begin + chunk] for begin in range(0, len(samples), chunk)
    ]
    for round_index, batch in enumerate(rounds):
        service.ingest_many(batch)
        service.advance_to(batch[-1].timestamp + INTERVAL)
        if round_index in CHECKPOINT_ROUNDS:
            service.checkpoint(ckpt_dir)
    return samples[-1].timestamp + INTERVAL


def settle(service, injector, stream_end):
    for step in range(1, SETTLE_LIMIT + 1):
        service.advance_to(stream_end + step * 0.001 * INTERVAL)
        if injector.exhausted() and not service.degraded_reasons():
            break
        time.sleep(0.02)
    service.stop()


def report_bytes(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Fault-free, challenger-free run: the alert-inert reference."""
    samples = make_stream(seed=7)
    sink = CollectingSink()
    service = make_service(sink)
    try:
        stream_end = drive(
            service, samples, str(tmp_path_factory.mktemp("clean") / "ckpt")
        )
        service.advance_to(stream_end + 0.001 * INTERVAL)
        service.stop()
        assert views.detectors(service)[1] == {"enabled": False, "detectors": []}
    finally:
        service.close()
    return samples, report_bytes(sink.reports)


class TestChaosShadowDrill:
    @pytest.mark.parametrize("seed", _seeds())
    def test_shadow_survives_chaos_and_restore(
        self, seed, reference_run, tmp_path
    ):
        samples, reference = reference_run
        injector = FaultInjector(FaultPlan.chaos(seed, n_shards=N_SHARDS))
        sink = CollectingSink()
        service = make_service(sink, injector=injector, shadow=SHADOW)
        final_ckpt = str(tmp_path / "final-ckpt")
        try:
            stream_end = drive(service, samples, str(tmp_path / "ckpt"))
            settle(service, injector, stream_end)

            assert injector.snapshot()["injected_total"] >= 1
            assert injector.exhausted()

            # Alert-inert under chaos: the challenger scored scans on
            # shards that crashed, restored, and hung mid-advance, and
            # the incident reports still match the challenger-free run.
            assert report_bytes(sink.reports) == reference

            before = views.detectors(service)[1]
            assert before["enabled"]
            assert [row["id"] for row in before["detectors"]] == SHADOW_IDS
            assert all(row["tally"]["scans"] > 0 for row in before["detectors"])

            # Tallies carried through the in-drill checkpoint/restore
            # cycles; now carry them through an explicit final one.
            service.checkpoint(final_ckpt)
        finally:
            service.close()

        restored = StreamingDetectionService.restore(
            final_ckpt, sinks=[CollectingSink()], workers=4
        )
        try:
            assert views.detectors(restored)[1] == before
            # The restored scorer is live: extend the stream across the
            # next rerun boundary and the same detector rows keep
            # accruing scans.
            tail = make_stream(seed=101, n_ticks=200, first_tick=N_TICKS)
            restored.ingest_many(
                [s for s in tail if s.timestamp >= restored.clock]
            )
            restored.advance_to(tail[-1].timestamp + INTERVAL)
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
