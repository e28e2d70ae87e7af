"""End-to-end tests for repro.service.service (StreamingDetectionService)."""

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.runtime import CollectingSink
from repro.service import (
    BackpressurePolicy,
    Sample,
    ServiceStats,
    StreamingDetectionService,
)
from repro.service import views
from repro.tsdb import WindowSpec


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


N_TICKS = 1_100
INTERVAL = 60.0
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]


def make_samples(seed=3, regress_index=3):
    rng = np.random.default_rng(seed)
    samples = []
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == regress_index:
            values[700:] += 0.0003
        tags = {"metric": "gcpu", "service": "svc", "subroutine": name.split(".")[1]}
        samples.extend(
            Sample(name, tick * INTERVAL, float(values[tick]), tags)
            for tick in range(N_TICKS)
        )
    samples.sort(key=lambda s: s.timestamp)
    return samples


@pytest.fixture(scope="module")
def samples():
    return make_samples()


def build(sink, n_shards=4, **kwargs):
    kwargs.setdefault("backpressure", BackpressurePolicy.BLOCK)
    kwargs.setdefault("queue_capacity", 512)
    service = StreamingDetectionService(n_shards=n_shards, sinks=[sink], **kwargs)
    service.register_monitor("gcpu", small_config(), series_filter={"metric": "gcpu"})
    return service


class TestEndToEnd:
    def test_multi_shard_detects_the_regression(self, samples):
        sink = CollectingSink()
        service = build(sink, n_shards=4)
        assert service.ingest_many(samples) == len(samples)
        reports = service.advance_to(N_TICKS * INTERVAL)
        assert [r.metric_id for r in reports] == ["svc.sub3.gcpu"]
        assert sink.reports == reports
        assert service.funnel.counts["change_points"] >= 1

    def test_series_partitioned_across_shards(self, samples):
        service = build(CollectingSink(), n_shards=4)
        service.ingest_many(samples)
        service.flush()
        per_shard = [len(service.shard_database(i)) for i in range(4)]
        assert sum(per_shard) == len(SERIES)
        # Routing is by series name: each series lives on exactly one shard.
        assert all(count >= 0 for count in per_shard)
        owned = {
            name
            for shard_id in range(4)
            for name in service.shard_database(shard_id).names()
        }
        assert owned == set(SERIES)

    def test_no_duplicate_reports_on_re_advance(self, samples):
        sink = CollectingSink()
        service = build(sink, n_shards=2)
        service.ingest_many(samples)
        first = service.advance_to(N_TICKS * INTERVAL)
        again = service.advance_to(N_TICKS * INTERVAL)  # no new due scans
        assert len(first) == 1
        assert again == []
        assert len(sink.reports) == 1

    def test_stats_consistent(self, samples):
        service = build(CollectingSink(), n_shards=4)
        service.ingest_many(samples)
        service.advance_to(N_TICKS * INTERVAL)
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.n_shards == 4
        assert stats.clock == N_TICKS * INTERVAL
        assert stats.offered == len(samples)
        assert stats.accepted == len(samples)
        assert stats.flushed == len(samples)  # BLOCK policy loses nothing
        assert stats.dropped == 0 and stats.rejected == 0
        assert stats.reported == 1
        assert stats.scans == sum(shard.scans for shard in stats.shards)
        assert sum(shard.series for shard in stats.shards) == len(SERIES)
        assert stats.metrics["counters"]["scheduler.scans"] == stats.scans
        rendered = stats.render()
        assert "shards=4" in rendered
        assert "scan latency" in rendered

    def test_render_metrics_exposition(self, samples):
        service = build(CollectingSink(), n_shards=2)
        service.ingest_many(samples[: len(SERIES) * 10])
        service.advance_to(600.0)
        text = views.metrics(service)[1]
        assert "ingest_accepted" in text
        assert "service_advance_seconds" in text
        assert "# TYPE service_shards gauge" in text


class TestConfigurationErrors:
    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            StreamingDetectionService(n_shards=0)
