"""Chaos drill for the data plane: a stream damaged from outside by
:mod:`repro.fleet.dirty` — NaN bursts, gaps on quiet series, reordering —
versus the clean run.

Gaps genuinely remove points, so the dirty run cannot be byte-identical
to the clean one.  The contract is instead:

- zero false alerts and zero missed regressions — the *set* of alerted
  metrics matches the clean run exactly;
- every damaged sample is accounted for — quarantined (the NaN extras),
  absent (gaps), or re-sequenced (reordering), never silently wrong in
  a shard TSDB;
- quarantine state and admission counters survive the SIGKILL pattern
  (checkpoint -> abandon the process -> restore), under parallel
  (``workers=4``) shard advances.

``REPRO_CHAOS_SEED`` overrides the damage seed, mirroring the
process-fault drill next door.
"""

import math
import os

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.fleet.dirty import DirtyDataSpec, dirty_stream
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

ROUND_SPAN = ADVANCE_EVERY * INTERVAL


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


def dirty_spec(seed):
    """The damage: NaN bursts on three series, gaps on two quiet ones
    (far below the gap gate's coverage floor), and reordering in blocks
    of four ticks — all of it within admission's reorder window."""
    return DirtyDataSpec(
        seed=seed,
        reorder_block=4 * len(SERIES),
        nan_series=tuple(SERIES[:3]),
        gap_series=(SERIES[5], SERIES[6]),
        gap_fraction=0.03,
    )


def make_service(sink):
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        workers=4,
        sinks=[sink],
        queue_capacity=2**14,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}
    )
    return service


def drive(service, samples, ckpt_dir):
    """Ingest/advance in fixed rounds with one mid-stream checkpoint.

    A round is the samples stamped inside its span, in delivery order,
    so a reordered stream meets the same advances as the clean one.
    Returns the quality snapshot captured at the checkpoint instant —
    the ground truth the SIGKILL-restore test compares against.  No
    background flusher runs and every round is synchronous, so nothing
    mutates admission state between the checkpoint and the snapshot.
    """
    at_checkpoint = None
    rounds = {}
    for sample in samples:
        rounds.setdefault(int(sample.timestamp // ROUND_SPAN), []).append(sample)
    for index in sorted(rounds):
        service.ingest_many(rounds[index])
        service.advance_to((index + 1) * ROUND_SPAN)
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
def clean_run(tmp_path_factory):
    """The undamaged drill outcome: exactly the planted regression."""
    sink = CollectingSink()
    service = make_service(sink)
    try:
        drive(service, make_stream(),
              str(tmp_path_factory.mktemp("clean") / "ckpt"))
        total_points = total_tsdb_points(service)
    finally:
        service.close()
    alerted = {report.metric_id for report in sink.reports}
    assert alerted == {SERIES[REGRESS_INDEX]}
    return alerted, total_points


@pytest.fixture(scope="module")
def dirty_run(tmp_path_factory):
    """One drill through the damaged stream, shared by the tests."""
    samples = make_stream()
    dirty = dirty_stream(samples, dirty_spec(_seed()))
    sink = CollectingSink()
    service = make_service(sink)
    ckpt_dir = str(tmp_path_factory.mktemp("data-faults") / "ckpt")
    try:
        at_checkpoint = drive(service, dirty, ckpt_dir)
        n_nans = sum(1 for sample in dirty if math.isnan(sample.value))
        return {
            "alerted": {report.metric_id for report in sink.reports},
            "n_nans": n_nans,
            "n_gaps": len(samples) - (len(dirty) - n_nans),
            "quality": views.quality(service)[1],
            "at_checkpoint": at_checkpoint,
            "ckpt_dir": ckpt_dir,
            "total_points": total_tsdb_points(service),
        }
    finally:
        service.close()


class TestDataFaultDrill:
    def test_zero_false_alerts_vs_clean(self, dirty_run, clean_run):
        # Set equality, both directions: no alert the clean run did not
        # raise (false alert) and no clean alert missing (missed
        # regression).  Bytes can differ — gaps genuinely drop points.
        assert dirty_run["alerted"] == clean_run[0]

    def test_every_damaged_sample_is_accounted_for(self, dirty_run, clean_run):
        quality = dirty_run["quality"]
        # The damage happened: NaN extras, lost points, reordering.
        assert dirty_run["n_nans"] > 0 and dirty_run["n_gaps"] > 0
        # The NaN extras were quarantined, not written.
        assert quality["counters"]["quarantined"] == dirty_run["n_nans"]
        assert quality["quarantined_points"] == dirty_run["n_nans"]
        # Reordered deliveries were re-sequenced through the buffer.
        assert quality["counters"]["reordered"] > 0
        assert quality["counters"]["duplicates"] == 0
        # TSDB conservation: every clean sample landed exactly once,
        # minus the gaps.
        assert dirty_run["total_points"] == clean_run[1] - dirty_run["n_gaps"]


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
