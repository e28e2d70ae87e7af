"""Tests for repro.service.checkpoint and service-level kill/restore.

The headline test streams a fleet through the service, kills it after
the first incident report, restores from the checkpoint, replays the
rest of the stream, and asserts the restored run delivers exactly the
reports the uninterrupted run would have — no losses, no re-alerts.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.incremental import IncrementalScanCache
from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange
from repro.profiling.stacktrace import StackTrace
from repro.runtime import CollectingSink
from repro.service import (
    BackpressurePolicy,
    CheckpointError,
    CheckpointManager,
    Sample,
    StreamingDetectionService,
)
from repro.service import checkpoint, views
from repro.tsdb import SeriesFrame, WindowSpec


def _blobs(shards):
    """What ``CheckpointManager.save`` takes: each shard's pickled bytes."""
    return {shard_id: pickle.dumps(state) for shard_id, state in shards.items()}


def small_config(**overrides):
    defaults = dict(
        name="test",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )
    defaults.update(overrides)
    return DetectionConfig(**defaults)


class TestCheckpointManager:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ckpt"))
        meta = {"clock": 5400.0, "ledger": {"svc.sub.gcpu": [1200.0]}}
        shards = {0: {"queue": [1, 2, 3]}, 1: {"queue": []}}
        manifest_path = manager.save(meta, _blobs(shards))
        assert os.path.isfile(manifest_path)
        assert manager.exists()

        loaded_meta, loaded_shards = manager.load()
        assert loaded_meta == meta
        # JSON stringifies the shard keys; payloads survive pickling.
        assert loaded_shards == {"0": {"queue": [1, 2, 3]}, "1": {"queue": []}}

    def test_generation_increments(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({0: "a"}))
        manager.save({}, _blobs({0: "b"}))
        with open(manager.manifest_path, encoding="utf-8") as source:
            assert json.load(source)["generation"] == 2

    def test_missing_manifest_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "nowhere"))
        assert not manager.exists()
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            manager.load()

    def test_a_pointer_manifest_alone_is_not_a_checkpoint(self, tmp_path):
        """Only versions the loader refuses ever wrote a bare
        ``manifest.json`` with no generation beside it."""
        manager = CheckpointManager(str(tmp_path))
        manager.save({"clock": 1.0}, _blobs({0: "x"}))
        os.unlink(tmp_path / "manifest.g1.json")
        assert os.path.isfile(manager.manifest_path)
        assert not manager.exists()
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            manager.load()

    def test_corrupt_blob_detected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({0: list(range(100))}))
        with open(manager.manifest_path, encoding="utf-8") as source:
            blob_name = json.load(source)["shards"]["0"]["file"]
        blob_path = tmp_path / blob_name
        payload = bytearray(blob_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            manager.load()

    def test_version_mismatch_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({0: "x"}))
        # Rewrite every manifest copy (pointer + generation) so there is
        # no intact generation left to fall back to.
        for name in ("manifest.json", "manifest.g1.json"):
            path = tmp_path / name
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest["version"] = 99
            path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version"):
            manager.load()

    def test_sample_row_era_checkpoint_is_refused_not_converted(self, tmp_path):
        """Version 1 queues held ``Sample`` rows; later versions hold frames."""
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({0: "x"}))
        for name in ("manifest.json", "manifest.g1.json"):
            path = tmp_path / name
            manifest = json.loads(path.read_text(encoding="utf-8"))
            assert manifest["version"] == 13
            manifest["version"] = 1
            path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version 1 != supported 13"):
            StreamingDetectionService.restore(str(tmp_path))

    def test_corrupt_manifest_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({}))
        for name in ("manifest.json", "manifest.g1.json"):
            (tmp_path / name).write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable manifest"):
            manager.load()


class TestCheckpointSize:
    def test_a_regular_series_costs_little_more_than_its_values(self, tmp_path):
        """A timestamp column at a 60 s cadence pickles as three numbers,
        so a series of 1,000 random values checkpoints in about their
        8,000 bytes, not the 16,000 of two columns; it restores equal."""
        n_series, n_points = 50, 1_000
        rng = np.random.default_rng(5)
        stamps = np.arange(n_points) * 60.0
        service = StreamingDetectionService(n_shards=1)
        frames = [
            SeriesFrame(f"svc.sub{index}.gcpu", {"metric": "gcpu"}, stamps,
                        rng.normal(0.001, 0.00002, n_points))
            for index in range(n_series)
        ]
        assert service.ingest_frames(frames) == n_series * n_points
        service.flush()
        directory = tmp_path / "ckpt"
        service.checkpoint(str(directory))
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["shards"]["0"]["bytes"] / n_series <= 10_000
        restored = StreamingDetectionService.restore(str(directory))
        try:
            assert list(restored.shard_database(0)) == list(service.shard_database(0))
        finally:
            restored.close()
            service.close()


class TestCheckpointGenerations:
    @staticmethod
    def _blob_of(directory, generation, shard="0"):
        manifest = json.loads(
            (directory / f"manifest.g{generation}.json").read_text(encoding="utf-8")
        )
        return directory / manifest["shards"][shard]["file"]

    def test_corrupt_newest_blob_falls_back_one_generation(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({"clock": 1.0}, _blobs({0: "one"}))
        manager.save({"clock": 2.0}, _blobs({0: "two"}))
        blob = self._blob_of(tmp_path, 2)
        payload = bytearray(blob.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        blob.write_bytes(bytes(payload))

        meta, shards = manager.load()
        assert meta == {"clock": 1.0}
        assert shards == {"0": "one"}
        info = manager.last_load()
        assert info["generation"] == 1
        assert info["fallbacks"] == 1
        assert "checksum mismatch" in info["skipped"][0]

    def test_truncated_blob_and_corrupt_manifest_fall_back(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({"clock": 1.0}, _blobs({0: "one"}))
        manager.save({"clock": 2.0}, _blobs({0: "two"}))
        manager.save({"clock": 3.0}, _blobs({0: "three"}))
        # Generation 3: truncated blob.  Generation 2: mangled manifest.
        blob = self._blob_of(tmp_path, 3)
        blob.write_bytes(blob.read_bytes()[:4])
        (tmp_path / "manifest.g2.json").write_text("{not json", encoding="utf-8")

        meta, shards = manager.load()
        assert meta == {"clock": 1.0} and shards == {"0": "one"}
        assert manager.last_load()["fallbacks"] == 2

    def test_manifest_with_a_flipped_byte_falls_back(self, tmp_path):
        """A flipped byte in a JSON manifest is rarely still UTF-8: the
        load must treat an undecodable manifest as corrupt too."""
        manager = CheckpointManager(str(tmp_path))
        manager.save({"clock": 1.0}, _blobs({0: "one"}))
        manager.save({"clock": 2.0}, _blobs({0: "two"}))
        manifest = tmp_path / "manifest.g2.json"
        payload = bytearray(manifest.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        manifest.write_bytes(bytes(payload))

        meta, shards = manager.load()
        assert meta == {"clock": 1.0} and shards == {"0": "one"}
        assert manager.last_load()["fallbacks"] == 1

    def test_intact_newest_means_no_fallback(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({"clock": 1.0}, _blobs({0: "one"}))
        manager.save({"clock": 2.0}, _blobs({0: "two"}))
        meta, _ = manager.load()
        assert meta == {"clock": 2.0}
        assert manager.last_load()["fallbacks"] == 0

    def test_old_generations_and_orphans_pruned(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "KEEP_GENERATIONS", 2)
        manager = CheckpointManager(str(tmp_path))
        for round_index in range(5):
            manager.save({"round": round_index}, _blobs({0: "x", 1: "y"}))
        names = sorted(os.listdir(tmp_path))
        assert "manifest.g4.json" in names and "manifest.g5.json" in names
        assert not any(name == f"manifest.g{g}.json" for g in (1, 2, 3) for name in names)
        # Every remaining blob is referenced by a retained manifest.
        referenced = set()
        for generation in (4, 5):
            manifest = json.loads(
                (tmp_path / f"manifest.g{generation}.json").read_text(encoding="utf-8")
            )
            referenced.update(e["file"] for e in manifest["shards"].values())
        blobs = {name for name in names if name.endswith(".pkl")}
        assert blobs == referenced

    def test_shard_shrink_prunes_stale_blobs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "KEEP_GENERATIONS", 1)
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({0: "a", 1: "b", 2: "c"}))
        manager.save({}, _blobs({0: "a"}))
        blobs = {n for n in os.listdir(tmp_path) if n.endswith(".pkl")}
        assert blobs == {"shard-0.g2.pkl"}

    def test_every_generation_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({}, _blobs({0: "one"}))
        manager.save({}, _blobs({0: "two"}))
        for generation in (1, 2):
            blob = self._blob_of(tmp_path, generation)
            blob.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="every checkpoint generation"):
            manager.load()


class TestServiceRestoreFallback:
    def test_restore_falls_back_with_ledger_intact(self, stream, tmp_path):
        """Corrupt the newest generation in-place; restore must fall back
        to the previous one and keep the re-alert ledger intact."""
        sink = CollectingSink()
        service = make_service(sink)
        feed(service, stream, 0, KILL_TICK)
        assert sink.reports, "a report must land before the checkpoints"

        directory = str(tmp_path / "ckpt")
        service.checkpoint(directory)
        service.checkpoint(directory)  # generation 2, identical state
        ledger_before = {k: list(v) for k, v in service._reported_ledger.items()}

        # Damage generation 2: one shard blob flipped, its manifest cut.
        manifest2 = json.loads(
            (tmp_path / "ckpt" / "manifest.g2.json").read_text(encoding="utf-8")
        )
        blob_name = manifest2["shards"]["0"]["file"]
        blob = tmp_path / "ckpt" / blob_name
        payload = bytearray(blob.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        blob.write_bytes(bytes(payload))

        sink_after = CollectingSink()
        restored = StreamingDetectionService.restore(directory, sinks=[sink_after])
        assert restored._reported_ledger == ledger_before
        counters = restored.metrics.snapshot()["counters"]
        assert counters["checkpoint.fallbacks"] == 1.0
        fallback_events = [
            e for e in restored.events.events() if e.kind == "checkpoint_fallback"
        ]
        assert len(fallback_events) == 1
        assert fallback_events[0].fields["generation"] == 1

        # Replay the tail: no re-alerts, same reports as an undisturbed run.
        reference_sink = CollectingSink()
        reference = make_service(reference_sink)
        feed(reference, stream, 0, N_TICKS)
        feed(restored, stream, KILL_TICK, N_TICKS)
        combined = report_keys(sink.reports) + report_keys(sink_after.reports)
        assert combined == report_keys(reference_sink.reports)
        assert len(set(combined)) == len(combined), "duplicate report after fallback"


# -- streaming kill/restore equivalence ---------------------------------

N_TICKS = 1_100
INTERVAL = 60.0
CHANGE_TICK = 700  # regression lands at t=42000, inside the first scan's window
KILL_TICK = 950  # after the first scan (t=54000) has reported
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]


def make_stream(seed=7):
    """Per-tick sample batches; svc.sub3 regresses at CHANGE_TICK."""
    rng = np.random.default_rng(seed)
    table = {}
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == 3:
            values[CHANGE_TICK:] += 0.0003
        table[name] = values
    return [
        [
            Sample(
                name,
                tick * INTERVAL,
                float(table[name][tick]),
                {"metric": "gcpu", "service": "svc", "subroutine": name.split(".")[1]},
            )
            for name in SERIES
        ]
        for tick in range(N_TICKS)
    ]


def make_service(sink):
    service = StreamingDetectionService(
        n_shards=2,
        sinks=[sink],
        queue_capacity=256,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=64,
    )
    service.register_monitor("gcpu", small_config(), series_filter={"metric": "gcpu"})
    return service


def feed(service, ticks, start, end, chunk=100):
    """Stream ticks [start, end), advancing detection after each chunk."""
    for begin in range(start, end, chunk):
        batch = ticks[begin : min(begin + chunk, end)]
        for tick in batch:
            for sample in tick:
                service.ingest_sample(sample)
        service.advance_to(batch[-1][0].timestamp + INTERVAL)


def report_keys(reports):
    return [(r.metric_id, r.change_time) for r in reports]


@pytest.fixture(scope="module")
def stream():
    return make_stream()


class TestKillRestoreEquivalence:
    def test_restored_run_matches_uninterrupted(self, stream, tmp_path):
        # Reference: one service sees the whole stream.
        reference_sink = CollectingSink()
        reference = make_service(reference_sink)
        feed(reference, stream, 0, N_TICKS)

        # Interrupted: kill after the first report, restore, replay the rest.
        sink_before = CollectingSink()
        victim = make_service(sink_before)
        feed(victim, stream, 0, KILL_TICK)
        assert sink_before.reports, "first report must land before the kill"

        directory = str(tmp_path / "ckpt")
        victim.checkpoint(directory)
        del victim  # the "crash"

        sink_after = CollectingSink()
        restored = StreamingDetectionService.restore(directory, sinks=[sink_after])
        feed(restored, stream, KILL_TICK, N_TICKS)

        combined = report_keys(sink_before.reports) + report_keys(sink_after.reports)
        assert combined == report_keys(reference_sink.reports)
        assert len(set(combined)) == len(combined), "duplicate report after restore"
        assert {r.metric_id for r in sink_before.reports} == {"svc.sub3.gcpu"}

        # The restored service kept counting where the victim stopped.
        stats = restored.stats()
        assert stats.reported == len(combined)
        assert stats.scans == reference.stats().scans
        assert stats.clock == reference.stats().clock

    def test_the_scan_context_rides_a_checkpoint(self, stream, tmp_path):
        """A monitor registered with a change log and stack samples keeps
        them across a restore: killed before its first scan, the restored
        service root-causes the regression as the uninterrupted one does."""
        context = dict(
            change_log=ChangeLog([
                CodeChange("culprit", deploy_time=41_500.0, title="rework sub3 inner loop",
                           effects=(ChangeEffect("sub3", 1.3),)),
                CodeChange("decoy", deploy_time=41_000.0, title="update dashboard colors",
                           effects=(ChangeEffect("web::render", 1.0),)),
            ]),
            samples=[StackTrace.from_names(["_start", "handler", "sub3"], weight=0.2),
                     StackTrace.from_names(["_start", "handler", "sub5"], weight=0.8)],
        )

        def run(*spans):
            """Reports of the stream fed over ``spans``, restored between them."""
            sink = CollectingSink()
            service = StreamingDetectionService(n_shards=2, sinks=[sink])
            service.register_monitor(
                "gcpu", small_config(), series_filter={"metric": "gcpu"}, **context
            )
            for index, (start, end) in enumerate(spans):
                if index:
                    service.checkpoint(str(tmp_path / "ckpt"))
                    service = StreamingDetectionService.restore(
                        str(tmp_path / "ckpt"), sinks=[sink]
                    )
                feed(service, stream, start, end)
            return [
                (r.metric_id, r.change_time, [(c.change_id, c.score) for c in r.root_causes])
                for r in sink.reports
            ]

        reference = run((0, N_TICKS))
        assert reference[0][0] == "svc.sub3.gcpu"
        assert reference[0][2][0][0] == "culprit"
        assert run((0, 850), (850, N_TICKS)) == reference

    def test_a_checkpoint_from_before_the_options_went_restores_and_advances(
        self, stream, tmp_path, monkeypatch
    ):
        """Admission's ``config`` / ``quarantine_capacity`` /
        ``non_negative_metrics`` and the screen's ``drift`` / ``threshold``
        became module constants, and the scan stack stopped holding
        ``metrics`` / ``tracer`` / ``sinks``.  A pickle written while they
        were attributes still carries them (the handles nulled): they sit
        in ``__dict__`` unread, and the run goes on as if uninterrupted.
        (A pipeline no longer rides a pickle at all: it is built again
        from its configuration.)"""
        reference_sink = CollectingSink()
        feed(make_service(reference_sink), stream, 0, N_TICKS)
        sink = CollectingSink()
        victim = make_service(sink)
        feed(victim, stream, 0, KILL_TICK)
        for shard in victim._shards.values():
            vars(shard.worker.admission).update(
                config=None, quarantine_capacity=1024,
                non_negative_metrics=frozenset({"gcpu"}),
            )
            vars(shard.scheduler).update(metrics=None, sinks=[])
        cache_state = IncrementalScanCache.__getstate__
        monkeypatch.setattr(
            IncrementalScanCache, "__getstate__",
            lambda cache: {**cache_state(cache), "drift": 0.75, "threshold": 6.0},
        )
        victim.checkpoint(str(tmp_path))
        restored = StreamingDetectionService.restore(str(tmp_path), sinks=[sink])
        for shard in restored._shards.values():
            assert vars(shard.worker.admission)["quarantine_capacity"] == 1024
            assert vars(shard.scheduler)["sinks"] == []
        feed(restored, stream, KILL_TICK, N_TICKS)
        assert report_keys(sink.reports) == report_keys(reference_sink.reports)

    def test_restore_preserves_series_and_ledger(self, stream, tmp_path):
        sink = CollectingSink()
        service = make_service(sink)
        feed(service, stream, 0, KILL_TICK)
        directory = str(tmp_path / "ckpt")
        service.checkpoint(directory)

        restored = StreamingDetectionService.restore(directory)
        assert restored.clock == service.clock
        assert restored.monitors() == ["gcpu"]
        assert restored._reported_ledger == service._reported_ledger
        assert restored.funnel.counts == service.funnel.counts
        total_series = sum(
            len(restored.shard_database(shard_id)) for shard_id in range(2)
        )
        assert total_series == len(SERIES)

    def test_queued_unflushed_samples_survive(self, tmp_path):
        service = StreamingDetectionService(n_shards=2, queue_capacity=64)
        for index in range(10):
            service.ingest(f"q.sub{index}.gcpu", 60.0 * index, 0.001)
        assert service.stats().flushed == 0  # still queued

        directory = str(tmp_path / "ckpt")
        service.checkpoint(directory)
        restored = StreamingDetectionService.restore(directory)
        assert restored.stats().accepted == 10
        assert restored.flush() == 10
        total_series = sum(
            len(restored.shard_database(shard_id)) for shard_id in range(2)
        )
        assert total_series == 10

    def test_restore_exports_this_life_shape_gauges(self, tmp_path):
        """A restore under a different ``workers`` exports its own shape,
        so ``/metrics`` and ``/healthz`` agree: the gauges are read off
        the service, and the checkpointed registry carries none."""
        directory = str(tmp_path / "ckpt")
        StreamingDetectionService(n_shards=2, workers=1).checkpoint(directory)
        restored = StreamingDetectionService.restore(directory, workers=2)
        assert "gauges" not in restored.metrics.snapshot()  # the registry has no gauge kind
        gauges = restored.stats().metrics["gauges"]
        assert gauges["service.workers"] == 2.0 == views.healthz(restored)[1]["workers"]
        assert gauges["service.shards"] == 2.0
        assert "service_workers 2" in views.metrics(restored)[1]
        restored.close()

    def test_restore_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            StreamingDetectionService.restore(str(tmp_path / "empty"))
