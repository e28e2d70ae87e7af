"""Tests for repro.profiling.tracing (endpoint-level tracing)."""

import threading

import pytest

from repro.profiling import tracing
from repro.profiling.tracing import EndpointCostAggregator, Tracer
from repro.tsdb import TimeSeriesDatabase


class TestTracer:
    def test_basic_request_and_spans(self):
        tracer = Tracer()
        with tracer.request("/feed") as trace:
            with tracer.span("render", cpu_cost=0.5):
                with tracer.span("rank", cpu_cost=0.3):
                    pass
        assert len(tracer.completed) == 1
        assert trace.endpoint == "/feed"
        assert trace.total_cpu_cost == pytest.approx(0.8)
        names = sorted(span.name for span in trace.spans)
        assert names == ["rank", "render"]

    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.request("/x") as trace:
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in trace.spans if s.parent_id == outer.span_id] == ["inner"]

    def test_span_outside_request_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="outside"):
            with tracer.span("orphan"):
                pass

    def test_cross_thread_spans_aggregate(self):
        tracer = Tracer()
        with tracer.request("/async") as trace:
            with tracer.span("dispatch", cpu_cost=0.1) as dispatch:
                def worker():
                    with tracer.span(
                        "background", cpu_cost=0.4, parent=dispatch, trace=trace
                    ):
                        pass

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert trace.total_cpu_cost == pytest.approx(0.5)
        assert trace.thread_count == 2
        background = next(s for s in trace.spans if s.name == "background")
        assert background.parent_id == dispatch.span_id

    def test_subtree_cost(self):
        tracer = Tracer()
        with tracer.request("/x") as trace:
            with tracer.span("a", cpu_cost=1.0) as a:
                with tracer.span("b", cpu_cost=2.0):
                    pass
            with tracer.span("c", cpu_cost=4.0):
                pass
        assert trace.subtree_cost(a.span_id) == pytest.approx(3.0)

    def test_subtree_cost_unknown_raises(self):
        tracer = Tracer()
        with tracer.request("/x") as trace:
            with tracer.span("a"):
                pass
        with pytest.raises(KeyError):
            trace.subtree_cost(999)

    def test_latency_spans_whole_request(self, monkeypatch):
        times = iter([0.0, 1.0, 2.0, 5.0, 9.0])
        monkeypatch.setattr(tracing, "CLOCK", lambda: next(times))
        tracer = Tracer()
        with tracer.request("/t") as trace:
            with tracer.span("a"):      # start 1.0, end 2.0
                pass
            with tracer.span("b"):      # start 5.0, end 9.0
                pass
        assert trace.end_to_end_latency == pytest.approx(8.0)

    def test_empty_trace(self):
        tracer = Tracer()
        with tracer.request("/empty") as trace:
            pass
        assert trace.total_cpu_cost == 0.0
        assert trace.end_to_end_latency == 0.0


class TestEndpointCostAggregator:
    def _traces(self, tracer, endpoint, costs):
        for cost in costs:
            with tracer.request(endpoint):
                with tracer.span("work", cpu_cost=cost):
                    pass

    def test_aggregation(self):
        tracer = Tracer()
        self._traces(tracer, "/feed", [1.0, 3.0])
        self._traces(tracer, "/profile", [2.0])
        db = TimeSeriesDatabase()
        written = EndpointCostAggregator(db, "svc").ingest(60.0, tracer.completed)
        assert written == 6
        cost = db.get("svc.endpoint.feed.cost")
        assert cost.values[0] == pytest.approx(2.0)
        requests = db.get("svc.endpoint.feed.requests")
        assert requests.values[0] == 2.0
        assert db.get("svc.endpoint.profile.cost").values[0] == pytest.approx(2.0)

    def test_tags_for_routing(self):
        tracer = Tracer()
        self._traces(tracer, "/feed", [1.0])
        db = TimeSeriesDatabase()
        EndpointCostAggregator(db, "svc").ingest(0.0, tracer.completed)
        series = db.get("svc.endpoint.feed.cost")
        assert series.tags["endpoint"] == "/feed"
        assert series.tags["metric"] == "endpoint_cost"

    def test_empty_ingest(self):
        db = TimeSeriesDatabase()
        assert EndpointCostAggregator(db, "svc").ingest(0.0, []) == 0

    def test_endpoint_regression_detectable(self):
        # Endpoint cost series built from traces feed the normal pipeline.
        import numpy as np

        from repro import FBDetect
        from repro.config import DetectionConfig
        from repro.tsdb import WindowSpec

        tracer = Tracer()
        db = TimeSeriesDatabase()
        aggregator = EndpointCostAggregator(db, "svc")
        rng = np.random.default_rng(0)
        for tick in range(900):
            base = 1.0 if tick < 700 else 1.2  # 20% endpoint regression
            self._traces(tracer, "/feed", [base + rng.normal(0, 0.02) for _ in range(5)])
            aggregator.ingest(tick * 60.0, tracer.completed)
            tracer.completed.clear()

        config = DetectionConfig(
            name="endpoint",
            threshold=0.05,
            rerun_interval=3600.0,
            windows=WindowSpec(36_000.0, 12_000.0, 6_000.0),
            long_term=False,
        )
        detector = FBDetect(config, series_filter={"metric": "endpoint_cost"})
        result = detector.run(db, now=900 * 60.0)
        assert len(result.reported) == 1
        assert result.reported[0].context.endpoint == "/feed"
