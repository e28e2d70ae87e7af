"""Tests for repro.core.root_cause."""

from unittest.mock import patch

import numpy as np
import pytest

import _reference_kernels as ref
from repro.core import root_cause
from repro.core.root_cause import RootCauseAnalyzer, gcpu_attribution
from repro.core.types import MetricContext, Regression, RegressionKind
from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange
from repro.profiling.stacktrace import StackTrace
from repro.tsdb import TimeSeries, WindowSpec


def table2_samples():
    """The exact Table 2 worked example.

    gCPU values are per-sample weights out of a fixed total of 1.0; the
    'Does not exist' row appears only in the after set.
    """
    before = [
        StackTrace.from_names(["A", "B", "C"], weight=0.01),
        StackTrace.from_names(["B", "E", "F"], weight=0.02),
        StackTrace.from_names(["D", "B", "C"], weight=0.02),
        StackTrace.from_names(["B", "E", "D"], weight=0.04),
        StackTrace.from_names(["other"], weight=0.91),
    ]
    after = [
        StackTrace.from_names(["A", "B", "C"], weight=0.02),
        StackTrace.from_names(["B", "E", "F"], weight=0.03),
        StackTrace.from_names(["D", "B", "C"], weight=0.02),
        StackTrace.from_names(["B", "E", "D"], weight=0.06),
        StackTrace.from_names(["G", "B", "D"], weight=0.01),
        StackTrace.from_names(["other"], weight=0.86),
    ]
    return before, after


class TestGcpuAttribution:
    def test_table2_worked_example(self):
        # B's gCPU: 0.09 before, 0.14 after -> R = 0.05.  The change
        # modifies A and E; samples involving them move 0.07 -> 0.11 ->
        # L = 0.04.  Attribution = L/R = 80%.
        before, after = table2_samples()
        fraction = gcpu_attribution(before, after, regressed="B", modified=["A", "E"])
        assert fraction == pytest.approx(0.80, abs=1e-9)

    def test_unrelated_change_zero(self):
        before, after = table2_samples()
        assert gcpu_attribution(before, after, "B", ["zzz"]) == 0.0

    def test_no_regression_zero(self):
        before, _ = table2_samples()
        assert gcpu_attribution(before, before, "B", ["A"]) == 0.0

    def test_empty_samples_zero(self):
        assert gcpu_attribution([], [], "B", ["A"]) == 0.0

    def test_clipped_to_unit_interval(self):
        before = [StackTrace.from_names(["other"], weight=1.0)]
        after = [
            StackTrace.from_names(["A", "B"], weight=0.5),
            StackTrace.from_names(["other"], weight=0.5),
        ]
        fraction = gcpu_attribution(before, after, "B", ["A"])
        assert 0.0 <= fraction <= 1.0


def make_regression(subroutine="svc::K::B", change_time=12_000.0):
    series = TimeSeries("m")
    rng = np.random.default_rng(0)
    for i in range(300):
        series.append(i * 60.0, 0.001 + rng.normal(0, 1e-5))
    view = WindowSpec(10_000.0, 5_000.0, 3_000.0).view(series, now=18_000.0)
    return Regression(
        context=MetricContext(
            metric_id=f"svc.{subroutine}.gcpu",
            service="svc",
            metric_name="gcpu",
            subroutine=subroutine,
        ),
        kind=RegressionKind.SHORT_TERM,
        change_index=33,
        change_time=change_time,
        mean_before=0.001,
        mean_after=0.0012,
        window=view,
    )


class TestRootCauseAnalyzer:
    def _log(self):
        return ChangeLog(
            [
                CodeChange(
                    "guilty",
                    deploy_time=11_800.0,
                    title="optimize svc::K::B serialization",
                    summary="rewrites the inner loop of svc::K::B",
                    effects=(ChangeEffect("svc::K::B", 1.2),),
                ),
                CodeChange(
                    "innocent",
                    deploy_time=11_900.0,
                    title="update dashboard colors",
                    summary="css tweaks only",
                    effects=(ChangeEffect("web::ui::render", 1.0),),
                ),
                CodeChange(
                    "too-old",
                    deploy_time=100.0,
                    title="touch svc::K::B long ago",
                    effects=(ChangeEffect("svc::K::B", 1.0),),
                ),
            ]
        )

    def test_ranks_guilty_change_first(self):
        # Lookback of 2000s covers the two recent changes only.
        with patch.object(root_cause, "LOOKBACK", 2_000.0):
            candidates = RootCauseAnalyzer().analyze(make_regression(), self._log())
        assert candidates
        assert candidates[0].change.change_id == "guilty"

    def test_candidates_limited_to_lookback(self):
        with patch.object(root_cause, "LOOKBACK", 2_000.0):
            found = RootCauseAnalyzer().analyze(make_regression(), self._log())
        ids = [c.change.change_id for c in found]
        assert "too-old" not in ids

    def test_no_candidates_when_log_empty(self):
        assert RootCauseAnalyzer().analyze(make_regression(), ChangeLog()) == []

    def test_low_confidence_suggests_nothing(self):
        log = ChangeLog([CodeChange("vague", deploy_time=11_900.0, title="misc")])
        with patch.object(root_cause, "CONFIDENCE_THRESHOLD", 0.9):
            assert RootCauseAnalyzer().analyze(make_regression(), log) == []

    def test_attribution_factor_uses_samples(self):
        before, after = table2_samples()
        log = ChangeLog(
            [
                CodeChange(
                    "c-attr",
                    deploy_time=11_900.0,
                    effects=(ChangeEffect("A", 1.3), ChangeEffect("E", 1.3)),
                )
            ]
        )
        candidates = RootCauseAnalyzer().analyze(
            make_regression(subroutine="B"), log, samples_before=before, samples_after=after
        )
        assert candidates
        assert candidates[0].factors["gcpu_attribution"] == pytest.approx(0.8)

    def test_setup_series_correlation(self):
        regression = make_regression()
        window = regression.window
        times = window.times[window.analysis_at :]
        setup = {  # tracks the regression's post-change series shape
            "flagged": dict(zip(times.tolist(), window.analysis_and_extended.tolist())),
        }
        log = ChangeLog([CodeChange("flagged", deploy_time=11_900.0, title="algo switch")])
        analyzer = RootCauseAnalyzer(setup_series=setup)
        with patch.object(root_cause, "CONFIDENCE_THRESHOLD", 0.1):
            candidates = analyzer.analyze(regression, log)
        assert candidates
        assert candidates[0].factors["time_correlation"] == pytest.approx(1.0)

    def test_a_setup_series_in_any_key_order_correlates_as_its_dict_did(self):
        """Root cause hands its ``{timestamp: value}`` setup series to the
        sorted-array kernel in time order: shuffled, partly overlapping,
        with int keys, the factor is the dict alignment's."""
        regression = make_regression()
        window = regression.window
        times = window.times[window.analysis_at :]
        rng = np.random.default_rng(5)
        keys = np.concatenate([times[40:], times[-1] + 60.0 * np.arange(1, 80)])
        values = np.concatenate([window.analysis_and_extended[40:], np.zeros(79)])
        values += rng.normal(0, 1e-5, keys.size)
        setup = {int(t): float(v) for t, v in zip(keys, values)}
        setup = dict(sorted(setup.items(), key=lambda item: rng.random()))
        flagged = dict(zip(times.tolist(), window.analysis_and_extended.tolist()))
        expected = ref.aligned_pearson(flagged, setup)
        assert expected > 0.5
        analyzer = RootCauseAnalyzer(setup_series={"flagged": setup})
        change = CodeChange("flagged", deploy_time=11_900.0)
        assert analyzer._correlation_factor(regression, change) == expected

    def test_results_stored_on_regression(self):
        regression = make_regression()
        with patch.object(root_cause, "LOOKBACK", 2_000.0):
            RootCauseAnalyzer().analyze(regression, self._log())
        assert regression.root_cause_candidates
        assert regression.root_cause_candidates[0].change_id == "guilty"

    def test_top_k_limit(self):
        changes = [
            CodeChange(
                f"c{i}",
                deploy_time=11_000.0 + i,
                title=f"touch svc::K::B variant {i}",
                effects=(ChangeEffect("svc::K::B", 1.1),),
            )
            for i in range(6)
        ]
        assert root_cause.TOP_K == 3
        assert len(RootCauseAnalyzer().analyze(make_regression(), ChangeLog(changes))) == 3

    def test_unexported_changes_invisible(self):
        log = ChangeLog(
            [
                CodeChange(
                    "secret",
                    deploy_time=11_900.0,
                    title="touch svc::K::B",
                    effects=(ChangeEffect("svc::K::B", 1.5),),
                    exported=False,
                )
            ]
        )
        assert RootCauseAnalyzer().analyze(make_regression(), log) == []
