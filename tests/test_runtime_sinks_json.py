"""Tests for JSON report serialization."""

import json

import pytest

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
