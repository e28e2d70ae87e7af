"""Tests for JSON report serialization and the JsonLinesSink."""

import io
import json

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.runtime import DetectionScheduler, JsonLinesSink, deliver_outcomes
from repro.tsdb import TimeSeriesDatabase, WindowSpec

from conftest import fill_series
from test_reporting import make_regression

from repro.reporting import build_report


class TestToDict:
    def test_roundtrips_through_json(self):
        report = build_report(make_regression())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["metric_id"] == "svc.sub.gcpu"
        assert payload["magnitude"] == pytest.approx(0.0002)
        assert payload["detection_latency"] == pytest.approx(200.0)
        assert payload["root_causes"][0]["change_id"] == "abc123"
        assert isinstance(payload["audit_trail"], list)


class TestJsonLinesSink:
    def test_writes_to_stream(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        sink.deliver(build_report(make_regression()))
        sink.deliver(build_report(make_regression()))
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["service"] == "svc"

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        sink = JsonLinesSink(str(path))
        sink.deliver(build_report(make_regression()))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "short_term"

    def test_scheduler_integration(self, rng, tmp_path):
        db = TimeSeriesDatabase()
        values = rng.normal(0.001, 0.00002, 1100)
        values[700:] += 0.0002
        fill_series(db, "svc.sub.gcpu", values,
                    tags={"service": "svc", "subroutine": "sub", "metric": "gcpu"})
        path = tmp_path / "incidents.jsonl"
        scheduler = DetectionScheduler(db)
        scheduler.register(
            "svc",
            DetectionConfig(
                name="svc", threshold=0.00005, rerun_interval=6_000.0,
                windows=WindowSpec(36_000.0, 12_000.0, 6_000.0), long_term=False,
            ),
        )
        deliver_outcomes(scheduler.advance_to(60_000.0), [JsonLinesSink(str(path))])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["metric_id"] == "svc.sub.gcpu"
