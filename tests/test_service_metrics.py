"""Tests for repro.service.metrics (counters, histograms, registry, exposition)."""

import threading
from unittest.mock import patch

import pytest

from repro.service import Counter, Histogram, MetricsRegistry
from repro.service import metrics as metrics_module
from repro.service.metrics import render


class TestCounter:
    def test_inc(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)


class TestHistogram:
    def test_count_sum_mean(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.006)
        assert histogram.mean == pytest.approx(0.002)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_brackets_observations(self):
        with patch.object(metrics_module, "LATENCY_BUCKETS", (1.0, 2.0, 4.0, 8.0)):
            histogram = Histogram()
        for value in (0.5, 1.5, 3.0, 6.0):
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        p99 = histogram.quantile(0.99)
        assert 0.5 <= p50 <= 3.0
        assert p50 <= p99 <= 6.0

    def test_overflow_bucket(self):
        with patch.object(metrics_module, "LATENCY_BUCKETS", (1.0,)):
            histogram = Histogram()
        histogram.observe(100.0)
        assert histogram.quantile(1.0) == pytest.approx(100.0)
        assert histogram.state()["counts"] == [0, 1]

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_invalid_buckets(self):
        for buckets in ((), (2.0, 1.0)):
            with patch.object(metrics_module, "LATENCY_BUCKETS", buckets):
                with pytest.raises(ValueError):
                    Histogram()


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        metrics = MetricsRegistry()
        metrics.inc("a.count", 3)
        metrics.observe("a.seconds", 0.01)
        assert metrics.counter("a.count").value == 3
        assert metrics.histogram("a.seconds").count == 1

    def test_same_instance_returned(self):
        metrics = MetricsRegistry()
        assert metrics.counter("x") is metrics.counter("x")
        assert metrics.histogram("y") is metrics.histogram("y")

    def test_recording_on_an_existing_name_constructs_nothing(self, monkeypatch):
        from repro.service import metrics as metrics_module

        built = []

        def counting(instrument):
            class Counting(instrument):
                def __init__(self, *args):
                    built.append(instrument.__name__)
                    super().__init__(*args)

            return Counting

        for instrument in (Counter, Histogram):
            monkeypatch.setattr(metrics_module, instrument.__name__, counting(instrument))
        registry = MetricsRegistry()
        for _ in range(50):
            registry.inc("a")
            registry.observe("h", 0.1)
        assert sorted(built) == ["Counter", "Histogram"]
        assert registry.counter("a").value == 50

    def test_timer_observes_elapsed(self):
        metrics = MetricsRegistry()
        with metrics.timer("op.seconds"):
            pass
        histogram = metrics.histogram("op.seconds")
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_snapshot_restore_round_trip(self):
        metrics = MetricsRegistry()
        metrics.inc("c", 5)
        for value in (0.001, 0.05, 3.0):
            metrics.observe("h", value)

        snapshot = metrics.snapshot()
        restored = MetricsRegistry()
        restored.restore(snapshot)

        assert restored.snapshot() == snapshot
        assert restored.histogram("h").quantile(0.5) == pytest.approx(
            metrics.histogram("h").quantile(0.5)
        )

    def test_snapshot_is_json_safe(self):
        import json

        metrics = MetricsRegistry()
        metrics.inc("c")
        metrics.observe("h", 0.2)
        json.dumps(metrics.snapshot())

    def test_render_text_exposition(self):
        metrics = MetricsRegistry()
        metrics.inc("service.ingest.accepted", 12)
        metrics.observe("scheduler.scan_seconds", 0.12)
        # Gauges come from the owners ``/metrics`` folds in beside the registry.
        text = render({**metrics.snapshot(), "gauges": {"service.queue.depth": 3}})
        assert "# TYPE service_ingest_accepted counter" in text
        assert "service_ingest_accepted 12" in text
        assert "# TYPE service_queue_depth gauge" in text
        assert "# TYPE scheduler_scan_seconds histogram" in text
        assert 'scheduler_scan_seconds_bucket{le="+Inf"} 1' in text
        assert "scheduler_scan_seconds_count 1" in text

    def test_render_empty(self):
        assert render(MetricsRegistry().snapshot()) == ""

    def test_thread_safety_under_contention(self):
        metrics = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                metrics.inc("contended.count")
                metrics.observe("contended.seconds", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("contended.count").value == n_threads * per_thread
        assert metrics.histogram("contended.seconds").count == n_threads * per_thread
