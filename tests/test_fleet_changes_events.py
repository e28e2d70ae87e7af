"""Tests for repro.fleet.changes and repro.fleet.events."""

import pytest

from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange, CostShift
from repro.fleet.events import TransientEvent, TransientEventKind


class TestCodeChange:
    def test_modified_subroutines_union(self):
        change = CodeChange(
            "c1",
            deploy_time=0.0,
            effects=(ChangeEffect("a", 1.2),),
            cost_shifts=(CostShift("b", "c", 0.5),),
        )
        assert change.modified_subroutines == ("a", "b", "c")

    def test_is_regression(self):
        regression = CodeChange("c", 0.0, effects=(ChangeEffect("a", 1.5),))
        improvement = CodeChange("c", 0.0, effects=(ChangeEffect("a", 0.8),))
        assert regression.is_regression
        assert not improvement.is_regression

    def test_invalid_kind_raises(self):
        with pytest.raises(ValueError):
            CodeChange("c", 0.0, kind="deploy")

    def test_invalid_effect_raises(self):
        with pytest.raises(ValueError):
            ChangeEffect("a", -0.1)

    def test_invalid_shift_raises(self):
        with pytest.raises(ValueError):
            CostShift("a", "b", 1.1)


class TestChangeLog:
    def _log(self):
        return ChangeLog(
            [
                CodeChange("late", deploy_time=100.0),
                CodeChange("early", deploy_time=10.0),
                CodeChange("hidden", deploy_time=50.0, exported=False),
            ]
        )

    def test_sorted_by_deploy_time(self):
        log = self._log()
        assert [c.change_id for c in log] == ["early", "hidden", "late"]

    def test_deployed_between_excludes_unexported(self):
        log = self._log()
        ids = [c.change_id for c in log.deployed_between(0.0, 200.0)]
        assert ids == ["early", "late"]

    def test_all_between_includes_unexported(self):
        log = self._log()
        ids = [c.change_id for c in log.all_between(0.0, 200.0)]
        assert "hidden" in ids

    def test_window_is_half_open(self):
        log = self._log()
        assert [c.change_id for c in log.deployed_between(10.0, 100.0)] == ["early"]

    def test_add_keeps_order(self):
        log = self._log()
        log.add(CodeChange("mid", deploy_time=60.0))
        assert [c.change_id for c in log][2] == "mid"

    def test_get(self):
        log = self._log()
        assert log.get("early").deploy_time == 10.0
        assert log.get("nope") is None


class TestTransientEvent:
    def test_active_window(self):
        event = TransientEvent(TransientEventKind.LOAD_SPIKE, start=10.0, duration=5.0)
        assert not event.active_at(9.9)
        assert event.active_at(10.0)
        assert event.active_at(14.9)
        assert not event.active_at(15.0)
        assert event.end == 15.0

    def test_multiplier_inactive_is_one(self):
        event = TransientEvent(TransientEventKind.LOAD_SPIKE, start=10.0, duration=5.0)
        assert event.multiplier("cpu", 0.0) == 1.0

    def test_load_spike_raises_cpu_and_throughput(self):
        event = TransientEvent(TransientEventKind.LOAD_SPIKE, start=0.0, duration=100.0)
        assert event.multiplier("cpu", 10.0) > 1.0
        assert event.multiplier("throughput", 10.0) > 1.0

    def test_server_failure_drops_throughput(self):
        event = TransientEvent(TransientEventKind.SERVER_FAILURE, start=0.0, duration=100.0)
        assert event.multiplier("throughput", 10.0) < 1.0
        assert event.multiplier("error_rate", 10.0) > 1.0

    def test_unaffected_metric_is_one(self):
        event = TransientEvent(TransientEventKind.CANARY_TEST, start=0.0, duration=10.0)
        assert event.multiplier("error_rate", 5.0) == 1.0

    def test_intensity_scales_deviation(self):
        strong = TransientEvent(TransientEventKind.LOAD_SPIKE, 0.0, 100.0, intensity=1.0)
        weak = TransientEvent(TransientEventKind.LOAD_SPIKE, 0.0, 100.0, intensity=0.5)
        assert strong.multiplier("cpu", 10.0) - 1.0 == pytest.approx(
            2 * (weak.multiplier("cpu", 10.0) - 1.0)
        )

    def test_rampdown_near_end(self):
        event = TransientEvent(TransientEventKind.LOAD_SPIKE, 0.0, 100.0)
        mid = event.multiplier("cpu", 50.0)
        late = event.multiplier("cpu", 99.0)
        assert abs(late - 1.0) < abs(mid - 1.0)

    def test_invalid_duration_raises(self):
        with pytest.raises(ValueError):
            TransientEvent(TransientEventKind.LOAD_SPIKE, 0.0, 0.0)
