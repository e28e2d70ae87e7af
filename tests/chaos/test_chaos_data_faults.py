"""Chaos drill for the data plane: ``data.corrupt`` / ``data.reorder`` /
``data.gap`` fault sites versus a clean run.

Data faults differ from process faults: they genuinely remove points
(gaps) or replace them with garbage (corruption), so the dirty run
cannot be byte-identical to the clean one.  The contract is instead:

- zero false alerts and zero missed regressions — the *set* of alerted
  metrics matches the clean run exactly;
- every damaged sample is accounted for — quarantined (corruption),
  absent (gaps), or re-sequenced (reordering), never silently wrong in
  a shard TSDB;
- quarantine state and admission counters survive the SIGKILL pattern
  (checkpoint -> abandon the process -> restore), under parallel
  (``workers=4``) shard advances.

``REPRO_CHAOS_SEED`` overrides the fault-plan seed, mirroring the
process-fault drill next door.
"""

import math
import os

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
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
ADVANCE_EVERY = 200  # ticks per ingest/advance round
CHECKPOINT_ROUND = 2  # round after which the kill-pattern checkpoint lands

# Budgets for the one data-fault seed: finite, so the run provably
# absorbs *all* of the damage (``injector.exhausted()``), and small
# enough that gaps stay far below the gap-gate's coverage floor.
CORRUPT_BUDGET = 15
GAP_BUDGET = 60
REORDER_BUDGET = 400


def _seed():
    return int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def small_config():
    return DetectionConfig(
        name="chaos-data",
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
    for name in SERIES:
        samples.extend(
            Sample(name, tick * INTERVAL, float(table[name][tick]),
                   {"metric": "gcpu"})
            for tick in range(N_TICKS)
        )
    samples.sort(key=lambda s: s.timestamp)
    return samples


def data_plan(seed):
    """One data-fault chaos schedule.

    The small budgets go first: :meth:`FaultInjector.data_directive` is
    winner-takes-all per sample, so the large reorder budget must not
    shadow the corrupt/gap draws.
    """
    return FaultPlan(seed=seed, specs=(
        FaultSpec(FaultKind.DATA_CORRUPT, times=CORRUPT_BUDGET,
                  after=40, probability=0.5),
        FaultSpec(FaultKind.DATA_GAP, times=GAP_BUDGET,
                  after=90, probability=0.4),
        FaultSpec(FaultKind.DATA_REORDER, times=REORDER_BUDGET,
                  after=20, probability=0.5),
    ))


def make_service(sink, injector=None):
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
        "gcpu", small_config(), series_filter={"metric": "gcpu"}
    )
    return service


def drive(service, samples, ckpt_dir):
    """Ingest/advance in fixed rounds with one mid-stream checkpoint.

    Returns the quality snapshot captured at the checkpoint instant —
    the ground truth the SIGKILL-restore test compares against.  No
    background flusher runs and every round is synchronous, so nothing
    mutates admission state between the checkpoint and the snapshot.
    """
    at_checkpoint = None
    chunk = ADVANCE_EVERY * len(SERIES)
    rounds = [samples[begin: begin + chunk]
              for begin in range(0, len(samples), chunk)]
    for index, batch in enumerate(rounds):
        service.ingest_many(batch)
        service.advance_to(batch[-1].timestamp + INTERVAL)
        if index == CHECKPOINT_ROUND:
            service.checkpoint(ckpt_dir)
            at_checkpoint = views.quality(service)[1]
    service.flush()
    return at_checkpoint


def total_tsdb_points(service):
    return sum(
        len(series)
        for shard_id in range(N_SHARDS)
        for series in service.shard_database(shard_id)
    )


@pytest.fixture(scope="module")
def clean_alerts(tmp_path_factory):
    """The fault-free drill outcome: exactly the planted regression."""
    sink = CollectingSink()
    service = make_service(sink)
    try:
        drive(service, make_stream(),
              str(tmp_path_factory.mktemp("clean") / "ckpt"))
    finally:
        service.close()
    alerted = {report.metric_id for report in sink.reports}
    assert alerted == {SERIES[REGRESS_INDEX]}
    return alerted


@pytest.fixture(scope="module")
def dirty_run(tmp_path_factory):
    """One drill through the data-fault schedule, shared by the tests."""
    samples = make_stream()
    injector = FaultInjector(data_plan(_seed()))
    sink = CollectingSink()
    service = make_service(sink, injector=injector)
    ckpt_dir = str(tmp_path_factory.mktemp("data-faults") / "ckpt")
    try:
        at_checkpoint = drive(service, samples, ckpt_dir)
        return {
            "n_samples": len(samples),
            "alerted": {report.metric_id for report in sink.reports},
            "counts": injector.counts(),
            "exhausted": injector.exhausted(),
            "quality": views.quality(service)[1],
            "at_checkpoint": at_checkpoint,
            "ckpt_dir": ckpt_dir,
            "total_points": total_tsdb_points(service),
        }
    finally:
        service.close()


class TestDataFaultDrill:
    def test_schedule_fired_and_exhausted(self, dirty_run):
        counts = dirty_run["counts"]
        assert dirty_run["exhausted"]
        assert counts["data_corrupt"] == CORRUPT_BUDGET
        assert counts["data_gap"] == GAP_BUDGET
        assert counts["data_reorder"] == REORDER_BUDGET

    def test_zero_false_alerts_vs_clean(self, dirty_run, clean_alerts):
        # Set equality, both directions: no alert the clean run did not
        # raise (false alert) and no clean alert missing (missed
        # regression).  Bytes can differ — gaps genuinely drop points.
        assert dirty_run["alerted"] == clean_alerts

    def test_every_damaged_sample_is_accounted_for(self, dirty_run):
        counts = dirty_run["counts"]
        quality = dirty_run["quality"]
        # Corrupted samples were quarantined, not written.
        assert quality["counters"]["quarantined"] == counts["data_corrupt"]
        assert quality["quarantined_points"] == counts["data_corrupt"]
        # Reordered deliveries were re-sequenced through the buffer.
        assert quality["counters"]["reordered"] > 0
        assert quality["counters"]["duplicates"] == 0
        # TSDB conservation: every sample landed exactly once, minus the
        # gap-dropped and the quarantined.
        expected = (dirty_run["n_samples"]
                    - counts["data_gap"] - counts["data_corrupt"])
        assert dirty_run["total_points"] == expected


class TestQuarantineSurvivesKill:
    def test_restore_matches_checkpoint_snapshot(self, dirty_run):
        """SIGKILL pattern: the checkpointed process is abandoned (the
        fixture closed it) and a fresh service restores from disk."""
        before = dirty_run["at_checkpoint"]
        assert before is not None
        assert before["quarantined_points"] > 0  # damage predates the kill
        restored = StreamingDetectionService.restore(
            dirty_run["ckpt_dir"], sinks=[CollectingSink()], workers=4
        )
        try:
            after = views.quality(restored)[1]
            assert after["counters"] == before["counters"]
            assert after["quarantined_points"] == before["quarantined_points"]
            by_shard = {
                shard["shard"]: shard["quarantine"]["series"]
                for shard in before["shards"]
            }
            for shard in after["shards"]:
                assert shard["quarantine"]["series"] == by_shard[shard["shard"]]
            # The restored admission layer is live, not a fossil.
            restored.ingest(SERIES[0], (N_TICKS + 10) * INTERVAL, math.nan,
                            {"metric": "gcpu"})
            assert (
                views.quality(restored)[1]["quarantined_points"]
                == before["quarantined_points"] + 1
            )
        finally:
            restored.close()
