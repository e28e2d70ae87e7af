"""Tests for the simulator's per-RPC-endpoint metric emission (§2)."""

import numpy as np
import pytest

from repro.fleet import FleetSimulator, ServiceSpec, TransientEvent, TransientEventKind
from repro.fleet.subroutine import CallGraph, SubroutineSpec


def endpoint_graph():
    graph = CallGraph()
    graph.add(SubroutineSpec("svc::A::feed", self_cost=6.0, parent="_start", endpoint="/feed"))
    graph.add(SubroutineSpec("svc::B::profile", self_cost=3.0, parent="_start", endpoint="/profile"))
    graph.add(SubroutineSpec("svc::C::helper", self_cost=1.0, parent="svc::A::feed"))
    return graph


def spec(**overrides):
    defaults = dict(
        name="svc",
        call_graph=endpoint_graph(),
        n_servers=10,
        effective_samples=200_000,
        samples_per_interval=0,
    )
    defaults.update(overrides)
    return ServiceSpec(**defaults)


class TestEndpointMetrics:
    def test_all_three_metric_kinds_emitted(self):
        result = FleetSimulator(spec(), interval=60.0, seed=0).run(10)
        db = result.database
        assert db.get("svc.endpoint.feed.gcpu") is not None
        assert db.get("svc.endpoint.feed.latency_ms") is not None
        assert db.get("svc.endpoint.feed.error_rate") is not None
        assert db.get("svc.endpoint.profile.latency_ms") is not None

    def test_tags_route_by_metric(self):
        result = FleetSimulator(spec(), interval=60.0, seed=0).run(5)
        latency = result.database.query(metric="endpoint_latency")
        assert {s.tags["endpoint"] for s in latency} == {"/feed", "/profile"}

    def test_heavier_endpoint_slower(self):
        result = FleetSimulator(spec(), interval=60.0, seed=1).run(40)
        feed = result.database.get("svc.endpoint.feed.latency_ms").values.mean()
        profile = result.database.get("svc.endpoint.profile.latency_ms").values.mean()
        assert feed > profile  # /feed carries 70% of the cost

    def test_event_raises_endpoint_latency(self):
        events = [TransientEvent(TransientEventKind.LOAD_SPIKE, start=600.0, duration=600.0)]
        result = FleetSimulator(spec(), events=events, interval=60.0, seed=2).run(40)
        latency = result.database.get("svc.endpoint.feed.latency_ms").values
        during = latency[11:18].mean()
        outside = np.concatenate([latency[:9], latency[25:]]).mean()
        assert during > 1.2 * outside

    def test_endpoint_gcpu_sums_to_one(self):
        result = FleetSimulator(spec(), interval=60.0, seed=3).run(30)
        feed = result.database.get("svc.endpoint.feed.gcpu").values.mean()
        profile = result.database.get("svc.endpoint.profile.gcpu").values.mean()
        # /feed subtree = (6+1)/10, /profile = 3/10.
        assert feed == pytest.approx(0.7, abs=0.01)
        assert profile == pytest.approx(0.3, abs=0.01)
