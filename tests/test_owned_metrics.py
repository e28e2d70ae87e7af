"""One number per fact: a count an owner keeps is served from that owner.

Ingest workers (``ingest.*``), admission controllers (``quality.*``,
quarantines by reason included), schedulers (``scheduler.scans``),
incremental-scan caches
(``pipeline.incremental.*``) and the service's own ints
(``service.reports.*`` and the shape gauges) hold their counts
themselves.  ``/metrics`` and ``stats().metrics`` fold them
in beside the registry's snapshot (``repro.service.views``), nothing
records them into the registry, and so neither a restore, a worker pool
nor a recovery path can serve a count that disagrees with its owner.
"""

import fnmatch
import json
import os
import threading
import time

import pytest

from repro.core.pipeline import DetectionPipeline
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, CheckpointError, StreamingDetectionService
from repro.service import parallel, views
from repro.tsdb import SeriesFrame

import test_publish_seam as seam
import test_report_fence as fence

#: Every name the fold emits, as glob patterns; no registry call may
#: record one (``tests/test_docs.py`` holds ``src/`` to that by AST).
OWNED = (
    "ingest.accepted", "ingest.flushed", "ingest.rejected", "ingest.dropped_oldest",
    "ingest.blocking_flushes", "ingest.flush_failures", "ingest.flush_seconds",
    "quality.quarantined", "quality.quarantined.*", "quality.repaired",
    "quality.counter_resets", "quality.duplicates", "quality.reordered",
    "service.reports.delivered", "service.reports.suppressed",
    "service.shards", "service.workers", "service.shard*.series",
    "scheduler.scans", "pipeline.incremental.hits", "pipeline.incremental.misses",
)

TAGS = {"metric": "gcpu"}


def owned(name):
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in OWNED)


def disagreements(service):
    """``(name, served, owner)`` for every owned count ``stats().metrics``
    serves differently from the view of its owner (``/status`` ingest,
    ``/quality`` counters, the shard databases); ``[]`` when all
    agree."""
    stats = service.stats()
    counters, gauges = stats.metrics["counters"], stats.metrics["gauges"]
    status, quality = views.status(service)[1], views.quality(service)[1]
    expected = {
        f"ingest.{key}": status["ingest"][total]
        for key, total in (
            ("accepted", "accepted"), ("flushed", "flushed"),
            ("rejected", "rejected"), ("dropped_oldest", "dropped"),
        )
    }
    for key in ("quarantined", "repaired", "counter_resets", "duplicates", "reordered"):
        expected[f"quality.{key}"] = quality["counters"].get(key, 0)
    expected["service.reports.delivered"] = status["reported"]
    expected["service.reports.suppressed"] = status["suppressed_realerts"]
    # The reasons add up to the total.
    expected["quality.quarantined.*"] = quality["counters"].get("quarantined", 0)
    counters = dict(counters)
    counters["quality.quarantined.*"] = sum(
        value for name, value in counters.items() if name.startswith("quality.quarantined.")
    )
    wrong = [
        (name, counters.get(name, 0), value)
        for name, value in expected.items()
        if counters.get(name, 0) != value
    ]
    shape = {"service.shards": status["n_shards"], "service.workers": status["workers"]}
    for shard_id in range(service.n_shards):
        shape[f"service.shard{shard_id}.series"] = len(service.shard_database(shard_id))
    wrong += [(name, gauges.get(name), value) for name, value in shape.items()
              if gauges.get(name) != value]
    flushes = sum(shard.counters["flushes"] for shard in stats.shards)
    histogram = stats.metrics["histograms"].get("ingest.flush_seconds", {"count": 0})
    if histogram["count"] != flushes:
        wrong.append(("ingest.flush_seconds", histogram["count"], flushes))
    return wrong


def split(service):
    """``(registry names, folded names)`` of what ``/metrics`` serves."""
    registry = service.metrics.snapshot()
    served = service.stats().metrics
    recorded = {name for kind in registry.values() for name in kind}
    return recorded, {name for kind in served.values() for name in kind} - recorded


class TestRestoredServicesServeTheirOwners:
    """The bug: the per-reason quarantine counters lived only in the
    registry, whose snapshot ``checkpoint()`` takes before the shards
    pickle their workers — so with a live producer every restored
    service served ``quality_quarantined`` != the sum of
    ``quality_quarantined_<reason>``, and nothing reconciled them."""

    SERIES = 400

    def test_quarantines_by_reason_add_up_after_every_restore(self, tmp_path):
        service = StreamingDetectionService(
            n_shards=4, queue_capacity=1 << 20, backpressure=BackpressurePolicy.BLOCK,
        )
        stop = threading.Event()

        def produce():
            tick = 0
            while not stop.is_set():
                # Per frame: a repeated timestamp (counted, overwritten)
                # and one NaN, negative (repaired) or infinite value.
                stamps = [float(tick), float(tick), tick + 1.0, tick + 2.0]
                for index in range(self.SERIES):
                    bad = (float("nan"), -1.0, float("inf"))[index % 3]
                    values = [0.001, 0.001, bad, 0.001]
                    service.ingest_frames([
                        SeriesFrame(f"svc.sub{index}.gcpu", TAGS, stamps, values)
                    ])
                tick += 3
                stop.wait(0.001)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        torn, reasons = [], set()
        try:
            deadline = time.monotonic() + 30.0
            while service.stats().accepted < 5 * self.SERIES and time.monotonic() < deadline:
                time.sleep(0.005)
            for round_index in range(8):
                directory = str(tmp_path / f"ckpt{round_index}")
                service.checkpoint(directory)
                restored = StreamingDetectionService.restore(directory)
                counters = restored.stats().metrics["counters"]
                reasons |= {
                    name for name in counters if name.startswith("quality.quarantined.")
                }
                torn += [(round_index, *row) for row in disagreements(restored)]
                restored.close()
        finally:
            stop.set()
            producer.join(timeout=10.0)
            service.close()
        assert not producer.is_alive()
        assert reasons == {"quality.quarantined.not_finite"}
        assert torn == []


def drill(workers):
    """The publish-seam fleet plus dirt: the service, closed, after
    every round was ingested and advanced."""
    names, tags, values = fence._fleet()
    service = StreamingDetectionService(
        n_shards=2, workers=workers, sinks=[CollectingSink()],
        queue_capacity=1 << 16, backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor("fence", fence.CONFIG, series_filter={"metric": "gcpu"})
    start = 0
    for stop in range(fence.PRELOAD_POINTS, seam.N_POINTS + 1, fence.POINTS_PER_ROUND):
        service.ingest_many(fence._samples(names, tags, values, start, stop))
        service.ingest_many(seam._dirt(start, stop))
        service.advance_to(stop * fence.INTERVAL)
        start = stop
    service.close()
    return service


@pytest.fixture(scope="module")
def drills():
    advance = parallel._advance_shard

    def crashing(shard_id, *args):
        if shard_id == 0:
            os._exit(13)
        return advance(shard_id, *args)

    with pytest.MonkeyPatch.context() as patch:
        drills = {"workers=1": drill(1), "workers=2": drill(2)}
        # Shard 0's worker dies on every advance (wrapped before the
        # fork): the parent advances it in place.
        patch.setattr(parallel, "_advance_shard", crashing)
        drills["fallback"] = drill(2)
        return drills


class TestEveryPathFoldsTheSameOwners:
    @pytest.mark.parametrize("path", ["workers=1", "workers=2", "fallback"])
    def test_owned_families_equal_their_owners_views(self, drills, path):
        service = drills[path]
        assert disagreements(service) == []
        counters = service.stats().metrics["counters"]
        assert counters["quality.quarantined.not_finite"] > 0
        assert counters["service.reports.delivered"] > 0

    @pytest.mark.parametrize("path", ["workers=1", "workers=2", "fallback"])
    def test_the_registry_and_the_fold_are_disjoint(self, drills, path):
        recorded, folded = split(drills[path])
        assert [name for name in recorded if owned(name)] == []
        assert [name for name in folded if not owned(name)] == []
        assert "ingest.flush_seconds" in folded and "service.workers" in folded

    def test_a_pool_and_its_fallback_fold_to_one_process(self, drills):
        def owned_counters(service):
            counters = service.stats().metrics["counters"]
            return {name: value for name, value in counters.items() if owned(name)}

        serial = owned_counters(drills["workers=1"])
        assert owned_counters(drills["workers=2"]) == serial
        assert owned_counters(drills["fallback"]) == serial
        assert drills["fallback"].metrics.snapshot()["counters"]["advance.fallbacks"] > 0


class TestTheManifestCarriesNoOwnedCount:
    @pytest.fixture()
    def checkpointed(self, drills, tmp_path):
        directory = tmp_path / "ckpt"
        drills["workers=1"].checkpoint(str(directory))
        return directory

    def test_meta_metrics_holds_no_owned_name(self, drills, checkpointed):
        manifest = json.loads((checkpointed / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["version"] == 12
        recorded = manifest["meta"]["metrics"]
        assert recorded["counters"], "the registry's own counts still ride the manifest"
        assert [name for kind in recorded.values() for name in kind if owned(name)] == []
        # ... and the owners bring every owned count back by themselves.
        restored = StreamingDetectionService.restore(str(checkpointed))
        try:
            assert disagreements(restored) == []
            served = restored.stats().metrics["counters"]
            original = drills["workers=1"].stats().metrics["counters"]
            assert {n: v for n, v in served.items() if owned(n)} == {
                n: v for n, v in original.items() if owned(n)
            }
        finally:
            restored.close()

    @pytest.mark.parametrize("version", [
        3,
        # A v4 manifest's ``meta.metrics`` holds ``scheduler.scans`` and
        # ``pipeline.incremental.*``, which the schedulers and caches now
        # own: restored, the fold's disjointness assert would trip.
        4,
        # A v5 manifest's ``meta`` carries the ring's ``replicas``, and its
        # pickles a series' duplicate policy and admission's config: the
        # knobs they name are gone.
        5,
        # A v6 blob's monitors wrap their pipeline in an ``FBDetect``, and
        # its detectors pickle the settings that are module constants now.
        6,
        # A v7 blob's regressions pickle their windows as three value
        # arrays and no timestamps.
        7,
        # A v8 blob's pipelines may pickle a shadow scorer, whose module
        # is gone: unpickled, it would raise past the fallback.
        8,
        # A v9 blob's pairwise-dedup groups hold whole regressions, which
        # the scoring no longer reads.
        9,
        # A v10 blob pickles every TSDB column as its values; it would
        # load, but the version says what a blob holds.
        10,
        # A v11 blob pickles pipelines and their detectors.
        11,
    ])
    def test_an_older_checkpoint_is_refused(self, checkpointed, version):
        for name in ("manifest.json", "manifest.g1.json"):
            path = checkpointed / name
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest["version"] = version
            path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError, match=f"version {version} != supported 12"):
            StreamingDetectionService.restore(str(checkpointed))


#: The due time of the drill's second scan, the first with cache hits.
FAILS_AT = fence.CONFIG.windows.total + fence.CONFIG.rerun_interval
#: The counts a scheduler and its monitors' caches keep.
SCAN_COUNTS = ("scheduler.scans", "pipeline.incremental.hits", "pipeline.incremental.misses")


def owner_sums(service):
    """The scan counts summed straight off their owners: every shard's
    scheduler and every monitor's incremental-scan cache."""
    schedulers = [shard.scheduler for shard in service._shards.values()]
    caches = [
        registration.state.cache
        for scheduler in schedulers
        for registration in scheduler._monitors.values()
    ]
    return dict(zip(SCAN_COUNTS, (
        sum(scheduler.scans for scheduler in schedulers),
        sum(cache.hits for cache in caches),
        sum(cache.misses for cache in caches),
    )))


@pytest.fixture(scope="module", params=[1, 2], ids=lambda workers: f"workers={workers}")
def raised(request):
    """The drill with every scan due at :data:`FAILS_AT` raising after
    the screen (the workers fork with the patch in place)."""
    change_points = DetectionPipeline._change_points

    def raising(self, scanned, now, *rest):
        if now == FAILS_AT:
            raise RuntimeError("injected: the scan raised after the screen")
        return change_points(self, scanned, now, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DetectionPipeline, "_change_points", raising)
        return drill(request.param)


class TestAScanThatRaisedAfterTheScreen:
    """The bug: a run's ledger carried ``pipeline.incremental.*`` and
    ``publish`` counted ``scheduler.scans``, beside the caches' and the
    shards' own ints.  A scan that raised after the screen lost its
    ledger while its screen decisions stood, so ``/metrics`` served fewer
    hits and misses than the caches held.  The owners are now the only
    count, whichever path advanced them and across a restore."""

    def test_metrics_serve_the_owners_sums(self, raised):
        counters = raised.stats().metrics["counters"]
        assert counters["scheduler.scan_failures"] >= 1
        sums = owner_sums(raised)
        assert sums["pipeline.incremental.hits"] > 0
        assert {name: counters[name] for name in SCAN_COUNTS} == sums

    def test_a_restore_serves_the_same_owners(self, raised, tmp_path):
        raised.checkpoint(str(tmp_path))
        restored = StreamingDetectionService.restore(str(tmp_path))
        try:
            counters = restored.stats().metrics["counters"]
            assert {name: counters[name] for name in SCAN_COUNTS} == owner_sums(raised)
            assert owner_sums(restored) == owner_sums(raised)
        finally:
            restored.close()
