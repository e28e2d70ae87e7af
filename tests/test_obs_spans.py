"""Tests for repro.obs.spans (funnel spans, trace store, live funnel)."""

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.obs import spans
from repro.core.pipeline import DetectionPipeline, STAGES as PIPELINE_STAGES
from repro.obs.spans import (
    STAGES,
    FunnelTrace,
    RunTrace,
    Span,
    StageTally,
    TraceStore,
)
from repro.runtime import CollectingSink
from repro.service import Sample, StreamingDetectionService
from repro.service import views
from repro.tsdb import FrameColumns, SeriesFrame, TimeSeriesDatabase, WindowSpec


def test_pipeline_reexports_canonical_stages():
    assert PIPELINE_STAGES is STAGES
    assert STAGES[0] == "change_points"
    assert STAGES[-1] == "pairwise_dedup"


class TestStageTally:
    def test_observe_counts_passes_and_drops(self):
        tally = StageTally()
        tally.observe(True, seconds=0.5)
        tally.observe(False, "went_away", seconds=0.25)
        tally.observe(False, "went_away", seconds=0.25)
        assert tally.inputs == 3
        assert tally.outputs == 1
        assert tally.drops == {"went_away": 2}
        assert tally.seconds == pytest.approx(1.0)

    def test_bulk_records_collection_stages(self):
        tally = StageTally()
        tally.bulk(10, 4, "som_duplicate", 0.1)
        span = tally.freeze("som_dedup")
        assert span.inputs == 10
        assert span.outputs == 4
        assert span.dropped == 6
        assert span.drops == {"som_duplicate": 6}

    def test_bulk_with_no_drops_records_no_reason(self):
        tally = StageTally()
        tally.bulk(3, 3, "som_duplicate", 0.0)
        assert tally.drops == {}


class TestRunTrace:
    @staticmethod
    def _chain(counts):
        spans = tuple(
            Span(stage=stage, inputs=inp, outputs=out, seconds=0.0)
            for stage, (inp, out) in zip(STAGES, counts)
        )
        return RunTrace(monitor="m", now=1.0, spans=spans)

    def test_telescoping_counts(self):
        run = self._chain(
            [(10, 4), (4, 3), (3, 3), (3, 2), (2, 2), (2, 1), (1, 1), (1, 1)]
        )
        assert run.telescopes()

    def test_non_telescoping_detected(self):
        run = self._chain(
            [(10, 4), (4, 3), (3, 3), (5, 2), (2, 2), (2, 1), (1, 1), (1, 1)]
        )
        assert not run.telescopes()

    def test_span_lookup(self):
        run = self._chain([(1, 1)] * len(STAGES))
        assert run.span("threshold").stage == "threshold"
        with pytest.raises(KeyError):
            run.span("nope")


class TestTraceStore:
    @staticmethod
    def _run(now):
        return RunTrace(monitor="m", now=now, spans=())

    def test_ring_buffer_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(spans, "RING_CAPACITY", 3)
        store = TraceStore()
        for now in range(5):
            store.record(self._run(float(now)))
        assert len(store) == 3
        assert store.recorded == 5
        assert [run.now for run in store.runs()] == [2.0, 3.0, 4.0]


def _seeded_database(n_series=6, n_regressed=2, n=1_700, step=600.0, seed=0):
    rng = np.random.default_rng(seed)
    database = TimeSeriesDatabase()
    for index in range(n_series):
        values = rng.normal(1.0, 0.01, n)
        if index < n_regressed:
            # Starts mid-analysis-window and persists through the
            # extended window, so the went-away check keeps it.
            values[-50:] += 0.5
        database.write_batch(FrameColumns.of(
            [SeriesFrame(f"s{index}.gcpu", {"metric": "gcpu"}, np.arange(n) * step, values)]
        ))
    return database, n * step


def _config(**overrides):
    defaults = dict(
        name="test",
        threshold=0.05,
        windows=WindowSpec(
            historic=10 * 86_400.0, analysis=4 * 3_600.0, extended=6 * 3_600.0
        ),
        long_term=False,
    )
    defaults.update(overrides)
    return DetectionConfig(**defaults)


class TestPipelineTracing:
    """Every run hands its trace back on the result: nothing to attach."""

    def test_each_run_emits_exactly_one_span_per_stage(self):
        database, end = _seeded_database()
        pipeline = DetectionPipeline(_config())
        runs = [pipeline.run(database, end).trace, pipeline.run(database, end + 600.0).trace]
        for run in runs:
            assert len(run.spans) == len(STAGES)
            assert [span.stage for span in run.spans] == list(STAGES)

    def test_short_term_spans_telescope(self):
        database, end = _seeded_database()
        result = DetectionPipeline(_config()).run(database, end)
        run = result.trace
        assert result.reported  # the scenario actually detects something
        assert run.telescopes()
        # Stage N's survivors are exactly stage N+1's inputs.
        for earlier, later in zip(run.spans, run.spans[1:]):
            assert later.inputs == earlier.outputs

    def test_span_outputs_equal_funnel_counters(self):
        database, end = _seeded_database()
        result = DetectionPipeline(_config()).run(database, end)
        for stage in STAGES:
            assert result.trace.span(stage).outputs == result.funnel.counts[stage], stage

    def test_change_point_drop_reasons_cover_all_series(self):
        database, end = _seeded_database(n_series=6, n_regressed=2)
        span = DetectionPipeline(_config()).run(database, end).trace.span("change_points")
        assert span.inputs == 6  # every matched series entered the stage
        assert span.outputs + sum(span.drops.values()) == span.inputs

    def test_a_pipeline_holds_no_handle_to_push_through(self):
        database, end = _seeded_database()
        pipeline = DetectionPipeline(_config())
        result = pipeline.run(database, end)
        assert not {"metrics", "tracer", "sinks"} & set(vars(pipeline))
        assert result.reported and result.trace.counts["pipeline.reported"] == len(
            result.reported
        )

    def test_long_term_path_breaks_telescoping_honestly(self):
        database, end = _seeded_database()
        run = DetectionPipeline(_config(long_term=True)).run(database, end).trace
        # Long-term candidates enter at change_points and re-join at
        # threshold, so threshold inputs exceed seasonality outputs.
        assert run.span("threshold").inputs >= run.span("seasonality").outputs


class TestFunnelTrace:
    def test_aggregates_and_renders(self):
        database, end = _seeded_database()
        store = TraceStore()
        pipeline = DetectionPipeline(_config())
        store.record(pipeline.run(database, end).trace)
        store.record(pipeline.run(database, end + 600.0).trace)
        trace = FunnelTrace.from_store(store)
        assert len(trace.runs) == 2
        per_run = [run.span("change_points").inputs for run in store.runs()]
        assert trace.totals["change_points"].inputs == sum(per_run)
        rows = trace.rows()
        assert [row["stage"] for row in rows] == list(STAGES)
        detected = trace.totals["change_points"].outputs
        for row in rows:
            if row["outputs"]:
                assert row["reduction"] == pytest.approx(
                    detected / row["outputs"]
                )
        rendered = trace.render()
        assert "change_points" in rendered
        assert "FunnelTrace over 2 run(s)" in rendered

    def test_to_dict_is_json_shaped(self):
        trace = FunnelTrace([])
        payload = trace.to_dict()
        assert payload["runs"] == 0
        assert len(payload["stages"]) == len(STAGES)


def _streamed_service(workers, n_shards=2, seed=3):
    rng = np.random.default_rng(seed)
    n_ticks, interval = 1_100, 60.0
    sink = CollectingSink()
    service = StreamingDetectionService(
        n_shards=n_shards, workers=workers, sinks=[sink], queue_capacity=2**16
    )
    config = _config(
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(
            historic=36_000.0, analysis=12_000.0, extended=6_000.0
        ),
    )
    service.register_monitor("gcpu", config, series_filter={"metric": "gcpu"})
    samples = []
    for index in range(8):
        values = rng.normal(0.001, 0.00002, n_ticks)
        if index == 3:
            values[700:] += 0.0003
        samples.extend(
            Sample(
                f"svc.sub{index}.gcpu",
                tick * interval,
                float(values[tick]),
                {"metric": "gcpu"},
            )
            for tick in range(n_ticks)
        )
    service.ingest_many(samples)
    return service, n_ticks * interval


class TestServiceTracing:
    def test_serial_service_records_one_trace_per_scan(self):
        service, end = _streamed_service(workers=1)
        service.advance_to(end)
        assert len(service.traces) == service.stats().scans
        for run in service.traces.runs():
            assert [span.stage for span in run.spans] == list(STAGES)
        service.close()

    def test_parallel_workers_ship_traces_back(self):
        serial, end = _streamed_service(workers=1)
        serial.advance_to(end)
        parallel, end = _streamed_service(workers=2)
        parallel.advance_to(end)
        try:
            assert len(parallel.traces) == parallel.stats().scans
            assert len(parallel.traces) == len(serial.traces)
            # The merged funnel totals are identical to the serial path.
            serial_totals = FunnelTrace.from_store(serial.traces).to_dict()
            parallel_totals = FunnelTrace.from_store(parallel.traces).to_dict()
            for s_row, p_row in zip(
                serial_totals["stages"], parallel_totals["stages"]
            ):
                assert s_row["inputs"] == p_row["inputs"], s_row["stage"]
                assert s_row["outputs"] == p_row["outputs"], s_row["stage"]
        finally:
            serial.close()
            parallel.close()

    def test_funnel_trace_outputs_match_service_funnel(self):
        service, end = _streamed_service(workers=1)
        service.advance_to(end)
        trace = views.funnel_trace(service)
        for stage in STAGES:
            assert trace.totals[stage].outputs == service.funnel.counts[stage]
        service.close()


class TestEventLog:
    def test_record_and_filter(self):
        from repro.obs.spans import EventLog

        log = EventLog()
        log.record("degraded", shard=1, reason="advance_retried")
        log.record("recovered", shard=1)
        log.record("degraded", shard=0, reason="in_process_fallback")
        assert len(log) == 3
        assert log.recorded == 3
        degraded = [e for e in log.events() if e.kind == "degraded"]
        assert [e.fields["shard"] for e in degraded] == [1, 0]
        assert degraded[0].to_dict()["reason"] == "advance_retried"

    def test_capacity_bounds_buffer_but_not_recorded(self, monkeypatch):
        from repro.obs.spans import EventLog

        monkeypatch.setattr(spans, "RING_CAPACITY", 4)
        log = EventLog()
        for index in range(10):
            log.record("tick", index=index)
        assert len(log) == 4
        assert log.recorded == 10
        assert [e.fields["index"] for e in log.events()] == [6, 7, 8, 9]
