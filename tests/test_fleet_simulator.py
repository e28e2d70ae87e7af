"""Tests for repro.fleet.simulator, server, service."""

import numpy as np
import pytest

from repro.fleet import (
    ChangeEffect,
    ChangeLog,
    CodeChange,
    CostShift,
    FleetSimulator,
    Server,
    ServerGeneration,
    ServiceSpec,
    TransientEvent,
    TransientEventKind,
)
from repro.fleet.subroutine import CallGraph, SubroutineSpec


def small_graph():
    graph = CallGraph()
    graph.add(SubroutineSpec("svc::M::main", self_cost=0.0, parent="_start", endpoint="/home"))
    graph.add(SubroutineSpec("svc::A::hot", self_cost=6.0, parent="svc::M::main"))
    graph.add(SubroutineSpec("svc::A::warm", self_cost=3.0, parent="svc::M::main"))
    graph.add(SubroutineSpec("svc::B::cold", self_cost=1.0, parent="svc::A::hot"))
    return graph


def make_spec(**overrides):
    defaults = dict(
        name="svc",
        call_graph=small_graph(),
        n_servers=20,
        effective_samples=500_000,
        samples_per_interval=100,
    )
    defaults.update(overrides)
    return ServiceSpec(**defaults)


class TestServerGeneration:
    def test_invalid_mean_raises(self):
        with pytest.raises(ValueError):
            ServerGeneration("g", cpu_mean=1.5, cpu_variance=0.01)

    def test_invalid_sensitivity_raises(self):
        with pytest.raises(ValueError):
            ServerGeneration("g", cpu_mean=0.5, cpu_variance=0.01, regression_sensitivity=0.0)


class TestServiceSpec:
    def test_invalid_servers_raises(self):
        with pytest.raises(ValueError):
            make_spec(n_servers=0)

    def test_build_servers_round_robin(self):
        spec = make_spec(n_servers=7)
        servers = spec.build_servers()
        assert len(servers) == 7
        assert servers[0].generation != servers[1].generation

    def test_seasonal_multiplier_disabled(self):
        spec = make_spec(seasonality_amplitude=0.0)
        assert spec.seasonal_multiplier(12345.0) == 1.0

    def test_seasonal_multiplier_swing(self):
        spec = make_spec(seasonality_amplitude=0.2, seasonality_period=100.0)
        assert spec.seasonal_multiplier(25.0) == pytest.approx(1.2)
        assert spec.seasonal_multiplier(75.0) == pytest.approx(0.8)


class TestFleetSimulator:
    def test_emits_all_metric_kinds(self):
        sim = FleetSimulator(make_spec(), interval=60.0, seed=0)
        result = sim.run(20)
        db = result.database
        assert db.get("svc.cpu") is not None
        assert db.get("svc.throughput") is not None
        assert db.get("svc.latency_ms") is not None
        assert db.get("svc.error_rate") is not None
        assert db.get("svc.svc::A::hot.gcpu") is not None
        assert db.get("svc.endpoint.endpoint.home.gcpu") or db.query(metric="endpoint_gcpu")

    def test_gcpu_tracks_inclusion_probability(self):
        sim = FleetSimulator(make_spec(), interval=60.0, seed=1)
        result = sim.run(50)
        values = result.database.get("svc.svc::A::hot.gcpu").values
        assert values.mean() == pytest.approx(0.7, abs=0.01)

    def test_change_applies_at_deploy_time(self):
        log = ChangeLog(
            [CodeChange("c1", deploy_time=50 * 60.0, effects=(ChangeEffect("svc::A::warm", 2.0),))]
        )
        sim = FleetSimulator(make_spec(), change_log=log, interval=60.0, seed=2)
        result = sim.run(100)
        values = result.database.get("svc.svc::A::warm.gcpu").values
        # gCPU of warm: before 3/10=0.3; after scaling cost 6: 6/13 ~ 0.46.
        assert values[:45].mean() == pytest.approx(0.30, abs=0.02)
        assert values[55:].mean() == pytest.approx(6 / 13, abs=0.02)

    def test_cost_shift_conserves_total(self):
        log = ChangeLog(
            [
                CodeChange(
                    "refactor",
                    deploy_time=30 * 60.0,
                    cost_shifts=(CostShift("svc::A::hot", "svc::A::warm", 0.5),),
                )
            ]
        )
        spec = make_spec()
        sim = FleetSimulator(spec, change_log=log, interval=60.0, seed=3)
        result = sim.run(60)
        # Total graph cost unchanged -> service CPU unchanged.
        cpu = result.database.get("svc.cpu").values
        assert cpu[:25].mean() == pytest.approx(cpu[35:].mean(), abs=0.02)
        # But the target's gCPU increased.
        warm = result.database.get("svc.svc::A::warm.gcpu").values
        assert warm[35:].mean() > warm[:25].mean() + 0.1

    def test_cost_shift_creates_new_subroutine(self):
        log = ChangeLog(
            [
                CodeChange(
                    "extract",
                    deploy_time=10 * 60.0,
                    cost_shifts=(CostShift("svc::A::hot", "svc::A::extracted", 0.3),),
                )
            ]
        )
        sim = FleetSimulator(make_spec(), change_log=log, interval=60.0, seed=4)
        result = sim.run(30)
        assert "svc::A::extracted" in sim.spec.call_graph
        assert result.database.get("svc.svc::A::extracted.gcpu") is not None

    def test_transient_event_perturbs_throughput(self):
        events = [
            TransientEvent(TransientEventKind.TRAFFIC_SHIFT, start=20 * 60.0, duration=10 * 60.0)
        ]
        sim = FleetSimulator(make_spec(), events=events, interval=60.0, seed=5)
        result = sim.run(60)
        tput = result.database.get("svc.throughput").values
        during = tput[22:28].mean()
        outside = np.concatenate([tput[:18], tput[35:]]).mean()
        assert during < 0.8 * outside

    def test_deterministic_given_seed(self):
        r1 = FleetSimulator(make_spec(), interval=60.0, seed=9).run(10)
        r2 = FleetSimulator(make_spec(), interval=60.0, seed=9).run(10)
        assert np.allclose(
            r1.database.get("svc.cpu").values, r2.database.get("svc.cpu").values
        )

    def test_sample_history_accumulates(self):
        sim = FleetSimulator(make_spec(samples_per_interval=50), interval=60.0, seed=6)
        result = sim.run(10)
        assert sum(t.weight for t in result.collector.sample_history) == 500

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            FleetSimulator(make_spec(), interval=0.0)

    def test_result_bookkeeping(self):
        result = FleetSimulator(make_spec(), interval=30.0, seed=0).run(7)
        assert result.ticks == 7
        assert result.end_time == pytest.approx(210.0)
