"""Tests for repro.faults: plans, specs, and the injector's decision model
over the three kinds that land inside a running flush or advance.

The property that matters everywhere: injection decisions are pure
functions of (plan, seed, invocation history) — two injectors built from
the same plan make identical decisions in identical order, which is what
lets the chaos suite compare fault-ridden runs against fault-free ones.
"""

import json

import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.obs.spans import EventLog
from repro.service import views
from repro.service.metrics import MetricsRegistry


class TestFaultSpec:
    def test_site_follows_kind(self):
        assert FaultSpec(FaultKind.WORKER_CRASH).site == "worker.advance"
        assert FaultSpec(FaultKind.ADVANCE_HANG).site == "worker.advance"
        assert FaultSpec(FaultKind.FLUSH_ERROR).site == "ingest.flush"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"times": 0},
            {"after": -1},
            {"probability": -0.1},
            {"probability": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.WORKER_CRASH, **kwargs)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            FaultKind.ADVANCE_HANG, shard=2, times=3, after=1,
            probability=0.25, hang_seconds=0.7,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_kind_and_keys(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec.from_dict({"kind": "meteor_strike"})
        with pytest.raises(ValueError, match="unknown fault spec keys"):
            FaultSpec.from_dict({"kind": "worker_crash", "blast_radius": 3})

    @pytest.mark.parametrize(
        "kind", ["data_gap", "checkpoint_corrupt", "manifest_corrupt", "clock_skew"]
    )
    def test_damage_done_from_outside_is_not_a_kind(self, kind):
        """Dirty data, damaged checkpoints and clock steps are applied
        to the service from outside; a plan naming them fails loudly."""
        with pytest.raises(ValueError, match="kind"):
            FaultSpec.from_dict({"kind": kind})


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(FaultKind.WORKER_CRASH, times=2),
            FaultSpec(FaultKind.FLUSH_ERROR, shard=1, after=4),
        ))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        assert FaultPlan.from_json_file(str(path)) == plan

    def test_from_json_file_errors_are_value_errors(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            FaultPlan.from_json_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="cannot read"):
            FaultPlan.from_json_file(str(bad))

    def test_chaos_is_deterministic_in_seed(self):
        assert FaultPlan.chaos(5) == FaultPlan.chaos(5)
        assert FaultPlan.chaos(5).to_dict() == FaultPlan.chaos(5).to_dict()

    @pytest.mark.parametrize("seed", range(8))
    def test_chaos_budgets_are_finite(self, seed):
        """Chaos plans must exhaust, or runs could never converge."""
        plan = FaultPlan.chaos(seed)
        assert plan.specs
        for spec in plan.specs:
            assert spec.times is not None
        assert FaultKind.WORKER_CRASH in {spec.kind for spec in plan.specs}


class TestInjectorDecisions:
    def test_after_and_times_gating(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.FLUSH_ERROR, times=1, after=2),
        ))
        injector = FaultInjector(plan)
        injector.maybe_raise("ingest.flush")  # invocation 1: gated by after
        injector.maybe_raise("ingest.flush")  # invocation 2: gated by after
        with pytest.raises(InjectedFault, match="flush_error"):
            injector.maybe_raise("ingest.flush")  # invocation 3: fires
        injector.maybe_raise("ingest.flush")  # budget spent: clean again
        assert injector.counts() == {"flush_error": 1}
        assert injector.exhausted()

    def test_shard_filter(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.FLUSH_ERROR, shard=1),))
        injector = FaultInjector(plan)
        injector.maybe_raise("ingest.flush", shard=0)  # no match
        with pytest.raises(InjectedFault):
            injector.maybe_raise("ingest.flush", shard=1)

    def test_probability_stream_is_deterministic(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(FaultKind.FLUSH_ERROR, times=None, probability=0.5),
        ))

        def decisions(injector):
            fired = []
            for _ in range(64):
                try:
                    injector.maybe_raise("ingest.flush")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        first = decisions(FaultInjector(plan))
        second = decisions(FaultInjector(plan))
        assert first == second
        assert any(first) and not all(first)

    def test_one_invocation_at_most_one_fault(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.FLUSH_ERROR, times=1),
            FaultSpec(FaultKind.FLUSH_ERROR, times=1),
        ))
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.maybe_raise("ingest.flush")
        # The second spec did not see the first invocation; it fires on
        # its own invocation instead of stacking on the first.
        with pytest.raises(InjectedFault):
            injector.maybe_raise("ingest.flush")
        injector.maybe_raise("ingest.flush")  # both budgets spent

    def test_worker_directives(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, times=1),
            FaultSpec(FaultKind.ADVANCE_HANG, times=1, hang_seconds=0.7),
        ))
        injector = FaultInjector(plan)
        assert injector.worker_directive(0) == ("crash", 0.0)
        assert injector.worker_directive(0) == ("hang", 0.7)
        assert injector.worker_directive(0) is None

    def test_metrics_and_events_record_every_firing(self):
        registry = MetricsRegistry()
        events = EventLog()
        plan = FaultPlan(specs=(FaultSpec(FaultKind.FLUSH_ERROR, times=2),))
        injector = FaultInjector(plan)
        injector.wire(metrics=registry, events=events)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.maybe_raise("ingest.flush", shard=1)
        counters = registry.snapshot()["counters"]
        assert counters["faults.injected"] == 2.0
        assert counters["faults.injected.flush_error"] == 2.0
        recorded = events.events(kind="fault_injected")
        assert len(recorded) == 2
        assert recorded[0].fields["site"] == "ingest.flush"
        assert recorded[0].fields["shard"] == 1

    def test_snapshot_shape(self):
        plan = FaultPlan(seed=4, specs=(FaultSpec(FaultKind.WORKER_CRASH),))
        injector = FaultInjector(plan)
        injector.worker_directive(0)
        snapshot = injector.snapshot()
        assert snapshot["seed"] == 4
        assert snapshot["injected_total"] == 1
        (spec,) = snapshot["specs"]
        assert spec["kind"] == "worker_crash"
        assert spec["seen"] == 1 and spec["fired"] == 1


class TestServiceClockHygiene:
    """Checkpoint age must come from the monotonic clock (satellite of
    the NTP-step bug): a wall-clock step moves the displayed ``last_at``
    but can never make ``age_seconds`` lie."""

    def test_skew_moves_display_not_age(self, tmp_path, monkeypatch):
        import time

        from repro.service import StreamingDetectionService

        service = StreamingDetectionService(n_shards=1)
        try:
            assert views.healthz(service)[1]["checkpoint"]["age_seconds"] is None
            wall = time.time
            monkeypatch.setattr(time, "time", lambda: wall() - 7200.0)  # NTP step
            service.checkpoint(str(tmp_path / "ckpt"))
            health = views.healthz(service)[1]
            age = health["checkpoint"]["age_seconds"]
            assert age is not None and 0.0 <= age < 60.0
            # The displayed wall timestamp carries the -2h step.
            assert health["checkpoint"]["last_at"] < wall() - 3600.0
        finally:
            service.close()

    def test_faults_snapshot_none_without_injector(self):
        from repro.service import StreamingDetectionService

        service = StreamingDetectionService(n_shards=1)
        try:
            assert views.faults(service)[1] == {"enabled": False, "events": []}
        finally:
            service.close()
