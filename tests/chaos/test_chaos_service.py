"""Chaos drills: randomized-but-reproducible fault schedules vs clean runs.

Every fault is done to the service from outside, as an operator or a
failing host would.  Per seed, a schedule picks one or two rounds
before whose advance a resident worker gets ``SIGKILL``, and one before
which a worker gets ``SIGSTOP``, so that it answers nothing and blows
:data:`~repro.service.parallel.ADVANCE_DEADLINE`, shortened to about a
second here.  The contract: the service delivers
**byte-identical** incident reports to a fault-free run over the same
stream, loses zero accepted samples, and converges back to
``healthz() == "ok"`` with every ``degraded`` event paired with a later
``recovered`` event.  The restore drill flips or truncates a file of
the newest checkpoint generation on disk, and the clock drill steps
``time.time``.

Environment knobs (both optional, for CI and local triage):

- ``REPRO_CHAOS_SEED``: run a single seed instead of the default matrix.
- ``REPRO_CHAOS_ARTIFACTS``: directory that receives the failing run's
  checkpoint directory, event log, metrics, and fault schedule.
"""

import json
import os
import random
import shutil
import signal
import time

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import parallel, views
from repro.tsdb import WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0
CHANGE_TICK = 700
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]
N_SHARDS = 4
ADVANCE_EVERY = 200  # ticks per ingest/advance round
CHECKPOINT_ROUNDS = (1, 3)  # rounds after which a checkpoint is written
SETTLE_LIMIT = 40  # max post-stream settle advances (stays < rerun_interval)
#: Seconds a stopped worker is waited for before it is killed.
DRILL_DEADLINE = 1.0


def _seeds():
    override = os.environ.get("REPRO_CHAOS_SEED")
    if override is not None:
        return [int(override)]
    return [0, 1, 2]


def small_config():
    return DetectionConfig(
        name="chaos",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


def make_stream(seed, regress_index=3):
    rng = np.random.default_rng(seed)
    table = {}
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == regress_index:
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


def fault_schedule(seed):
    """``round -> (signal, worker index)``, sent before that round's
    advance: ``SIGKILL`` in one or two rounds and ``SIGSTOP`` in one.
    Each goes to a round of its own after the first, which forks the
    workers, and to a worker of its own: a worker whose advance failed
    is re-forked at its next round anyway, which would hide a second
    signal to it."""
    rng = random.Random(f"chaos:{seed}")
    rounds = -(-N_TICKS // ADVANCE_EVERY)
    kills = rng.randint(1, 2)
    picked = rng.sample(range(1, rounds), kills + 1)
    workers = rng.sample(range(N_SHARDS), kills + 1)
    signals = [signal.SIGKILL] * kills + [signal.SIGSTOP]
    return dict(zip(picked, zip(signals, workers)))


def make_service(sink):
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        workers=4,
        sinks=[sink],
        # Smaller than a round: each round's ingest pays caller-runs
        # flushes, so the drill writes the TSDB the way producers do.
        queue_capacity=256,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}
    )
    return service


def drive(service, samples, ckpt_dir, faults=None):
    """The drill schedule, identical for clean and chaotic runs.

    Ingest/advance in fixed rounds, and checkpoint at fixed rounds, so
    the restore drill has generations to fall back across.  Detection is
    clock-driven, so two services driven through this schedule scan at
    identical instants.  ``faults`` (see :func:`fault_schedule`) signals
    a worker before the advance of its rounds.
    """
    chunk = ADVANCE_EVERY * len(SERIES)
    rounds = [samples[begin: begin + chunk] for begin in range(0, len(samples), chunk)]
    for round_index, batch in enumerate(rounds):
        service.ingest_many(batch)
        if faults and round_index in faults:
            signum, worker = faults[round_index]
            os.kill(service._executor.worker_pids()[worker], signum)
        service.advance_to(batch[-1].timestamp + INTERVAL)
        if round_index in CHECKPOINT_ROUNDS:
            service.checkpoint(ckpt_dir)
    return samples[-1].timestamp + INTERVAL


def settle(service, stream_end):
    """Post-stream convergence: advance until no shard is degraded.

    A fault in the last round leaves its shard degraded until one clean
    advance clears it.  The advances stay far below the next rerun
    boundary, so they can never produce a report and never diverge from
    the clean run.
    """
    for step in range(1, SETTLE_LIMIT + 1):
        service.advance_to(stream_end + step * 0.001 * INTERVAL)
        if not service.degraded_reasons():
            break
    service.flush()


def report_bytes(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def damage_newest_generation(ckpt_dir, seed):
    """Flip a byte of, or truncate, one seeded-chosen file of the newest
    checkpoint generation — a blob or its manifest — as a failing disk
    would.  Returns the damaged file's name."""
    rng = random.Random(f"chaos.checkpoint-damage:{seed}")
    newest = max(
        int(name[len("manifest.g"):-len(".json")])
        for name in os.listdir(ckpt_dir)
        if name.startswith("manifest.g")
    )
    manifest = f"manifest.g{newest}.json"
    with open(os.path.join(ckpt_dir, manifest), encoding="utf-8") as source:
        blobs = [entry["file"] for entry in json.load(source)["shards"].values()]
    target = rng.choice([manifest] + sorted(blobs))
    path = os.path.join(ckpt_dir, target)
    with open(path, "rb") as source:
        payload = bytearray(source.read())
    if rng.random() < 0.5:
        payload = payload[: len(payload) // 2]
    else:
        payload[rng.randrange(len(payload))] ^= 0xFF
    with open(path, "wb") as sink:
        sink.write(bytes(payload))
    return target


def dump_artifacts(seed, service, faults, ckpt_dir):
    root = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if not root:
        return
    target = os.path.join(root, f"seed-{seed}")
    os.makedirs(target, exist_ok=True)
    if os.path.isdir(ckpt_dir):
        shutil.copytree(
            ckpt_dir, os.path.join(target, "checkpoint"), dirs_exist_ok=True
        )
    state = {
        "seed": seed,
        "schedule": {
            str(round_index): [signal.Signals(signum).name, worker]
            for round_index, (signum, worker) in sorted(faults.items())
        },
        "metrics": service.metrics.snapshot(),
        "degraded": service.degraded_reasons(),
        "healthz": views.healthz(service)[1],
        "events": [event.to_dict() for event in service.events.events()],
    }
    with open(os.path.join(target, "chaos-state.json"), "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=2, sort_keys=True, default=str)


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """One fault-free run of the drill schedule, shared across seeds."""
    samples = make_stream(seed=7)
    sink = CollectingSink()
    service = make_service(sink)
    try:
        stream_end = drive(
            service, samples, str(tmp_path_factory.mktemp("clean") / "ckpt")
        )
        service.advance_to(stream_end + 0.001 * INTERVAL)
        service.flush()
        stats = service.stats()
        assert stats.offered == stats.flushed == len(samples)
    finally:
        service.close()
    return samples, report_bytes(sink.reports)


@pytest.fixture()
def short_deadline(monkeypatch):
    """A stopped worker is killed after :data:`DRILL_DEADLINE`, not 60 s."""
    monkeypatch.setattr(parallel, "ADVANCE_DEADLINE", DRILL_DEADLINE)


@pytest.mark.usefixtures("short_deadline")
class TestChaosDrill:
    @pytest.mark.parametrize("seed", _seeds())
    def test_chaos_run_converges_to_clean_outcome(
        self, seed, reference_run, tmp_path
    ):
        samples, reference = reference_run
        faults = fault_schedule(seed)
        sink = CollectingSink()
        service = make_service(sink)
        ckpt_dir = str(tmp_path / "ckpt")
        try:
            stream_end = drive(service, samples, ckpt_dir, faults)
            settle(service, stream_end)

            # Every signal landed: a SIGKILLed worker is found dead and
            # re-forked, a SIGSTOPped one blows its deadline and is killed.
            counters = service.metrics.snapshot()["counters"]
            assert counters["advance.deadline_exceeded"] >= 1
            assert counters["advance.pool_recreations"] >= 2
            # One recovery: the parent advanced what a dead worker held.
            assert counters["advance.fallbacks"] >= 1
            assert "advance.retries" not in counters

            # Byte-identical incident reports despite the chaos.
            assert report_bytes(sink.reports) == reference

            # Zero sample loss: everything offered under BLOCK was
            # accepted, flushed, and landed in exactly one shard TSDB.
            stats = service.stats()
            assert stats.offered == len(samples)
            assert stats.accepted == len(samples)
            assert stats.dropped == 0 and stats.rejected == 0
            assert stats.flushed == len(samples)
            assert sum(shard.counters["blocking_flushes"] for shard in stats.shards) > 0
            total_points = sum(
                len(series)
                for shard_id in range(N_SHARDS)
                for series in service.shard_database(shard_id)
            )
            assert total_points == len(samples)

            # Degraded -> ok: every degradation recovered, and the final
            # health answer is a clean 200.
            health = views.healthz(service)[1]
            assert health["status"] == "ok"
            assert health["degraded_shards"] == 0
            events = service.events.events()
            degraded = [e.fields["shard"] for e in events if e.kind == "degraded"]
            recover_times = {}
            for event in (e for e in events if e.kind == "recovered"):
                recover_times.setdefault(event.fields["shard"], []).append(event.wall)
            for shard in degraded:
                assert shard in recover_times, f"no recovery for shard {shard}"
        except AssertionError:
            dump_artifacts(seed, service, faults, ckpt_dir)
            raise
        finally:
            service.close()

    @pytest.mark.parametrize("seed", _seeds())
    def test_chaos_checkpoints_restore_or_fall_back(
        self, seed, reference_run, tmp_path
    ):
        """Checkpoints written *during* chaos stay usable: with a file of
        the newest generation damaged on disk, restore falls back to the
        intact older one, and the restored service replays to the clean
        outcome."""
        samples, reference = reference_run
        faults = fault_schedule(seed)
        sink = CollectingSink()
        service = make_service(sink)
        ckpt_dir = str(tmp_path / "ckpt")
        try:
            stream_end = drive(service, samples, ckpt_dir, faults)
            settle(service, stream_end)
        except Exception:
            dump_artifacts(seed, service, faults, ckpt_dir)
            raise
        finally:
            service.close()

        damage_newest_generation(ckpt_dir, seed)
        resume_sink = CollectingSink()
        restored = StreamingDetectionService.restore(
            ckpt_dir, sinks=[resume_sink], workers=4
        )
        try:
            counters = restored.metrics.snapshot()["counters"]
            assert counters["checkpoint.fallbacks"] >= 1
            resume_from = restored.clock
            assert resume_from > 0.0
            restored.ingest_many(
                [s for s in samples if s.timestamp >= resume_from]
            )
            restored.advance_to(stream_end)
            restored.flush()
            seen = {
                (r.metric_id, r.change_time) for r in sink.reports
            } | {
                (r.metric_id, r.change_time) for r in resume_sink.reports
            }
            expected = {
                (r["metric_id"], r["change_time"])
                for r in json.loads(reference)
            }
            assert seen == expected
        except AssertionError:
            dump_artifacts(seed, restored, faults, ckpt_dir)
            raise
        finally:
            restored.close()


class TestTargetedRecoveries:
    """Deterministic single-fault drills."""

    def test_clock_skew_never_corrupts_checkpoint_age(self, tmp_path, monkeypatch):
        """Checkpoint age comes from the monotonic clock: a wall-clock
        step moves the displayed ``last_at`` but never ``age_seconds``."""
        service = make_service(CollectingSink())
        try:
            assert views.healthz(service)[1]["checkpoint"]["age_seconds"] is None
            wall = time.time
            monkeypatch.setattr(time, "time", lambda: wall() - 7200.0)  # NTP step
            service.checkpoint(str(tmp_path / "ckpt"))
            health = views.healthz(service)[1]
            age = health["checkpoint"]["age_seconds"]
            assert age is not None and 0.0 <= age < 60.0
            assert health["checkpoint"]["last_at"] < wall() - 3600.0
        finally:
            service.close()
