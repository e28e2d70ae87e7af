"""Tests for repro.reporting."""

import numpy as np
import pytest

from repro.core.pipeline import FunnelCounters
from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MetricContext,
    Regression,
    RegressionKind,
    RootCauseScore,
)
from repro.reporting import build_report, format_funnel_table, format_report, funnel_rows
from repro.tsdb import TimeSeries, WindowSpec


def make_regression():
    series = TimeSeries("svc.sub.gcpu")
    rng = np.random.default_rng(0)
    for i in range(900):
        series.append(float(i), 0.001 + float(rng.normal(0, 1e-5)))
    view = WindowSpec(600, 200, 100).view(series, now=900.0)
    regression = Regression(
        context=MetricContext(
            metric_id="svc.sub.gcpu", service="svc", metric_name="gcpu", subroutine="sub"
        ),
        kind=RegressionKind.SHORT_TERM,
        change_index=100,
        change_time=700.0,
        mean_before=0.001,
        mean_after=0.0012,
        window=view,
        detected_at=900.0,
    )
    regression.record(DetectionVerdict.keep(detail="went-away passed"))
    regression.root_cause_candidates = [
        RootCauseScore("abc123", 0.8, {"text_similarity": 0.7})
    ]
    return regression


class TestBuildReport:
    def test_fields(self):
        report = build_report(make_regression())
        assert report.metric_id == "svc.sub.gcpu"
        assert report.magnitude == pytest.approx(0.0002)
        assert report.relative_magnitude == pytest.approx(0.2)
        assert report.detection_latency == pytest.approx(200.0)
        assert report.root_causes[0].change_id == "abc123"
        assert any("went-away" in line for line in report.audit_trail)

    def test_drop_verdict_in_audit(self):
        regression = make_regression()
        regression.record(DetectionVerdict.drop(FilterReason.COST_SHIFT, detail="d"))
        report = build_report(regression)
        assert any("drop(cost_shift)" in line for line in report.audit_trail)

    def test_infinite_relative_magnitude_zeroed(self):
        regression = make_regression()
        regression.mean_before = 0.0
        report = build_report(regression)
        assert report.relative_magnitude == 0.0


class TestFormatReport:
    def test_renders_key_facts(self):
        text = format_report(build_report(make_regression()))
        assert "svc.sub.gcpu" in text
        assert "abc123" in text
        assert "latency" in text

    def test_no_root_cause_message(self):
        regression = make_regression()
        regression.root_cause_candidates = []
        text = format_report(build_report(regression))
        assert "none with sufficient confidence" in text


class TestFunnelFormatting:
    def _funnel(self):
        funnel = FunnelCounters()
        funnel.counts.update(
            change_points=1000, went_away=10, seasonality=8, threshold=6,
            same_regression=5, som_dedup=3, cost_shift=2, pairwise_dedup=1,
        )
        return funnel

    def test_funnel_rows_ratios(self):
        rows = dict(funnel_rows(self._funnel()))
        assert rows["# Change points detected"] == "1000"
        assert rows["After went-away detection"].startswith("1/100")
        assert rows["After PairwiseDedup"].startswith("1/1000")

    def test_zero_survivors(self):
        funnel = FunnelCounters()
        funnel.counts["change_points"] = 10
        rows = dict(funnel_rows(funnel))
        assert "inf" in rows["After went-away detection"]

    def test_zero_detected(self):
        rows = dict(funnel_rows(FunnelCounters()))
        assert rows["After went-away detection"] == "--"

    def test_format_table_multi_column(self):
        table = format_funnel_table({"svc-a": self._funnel(), "svc-b": self._funnel()})
        assert "svc-a" in table and "svc-b" in table
        assert "After cost-shift analysis" in table
        # Every Table 3 row label present.
        assert table.count("\n") >= 8
