"""Tests for repro.fleet.subroutine."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.fleet import subroutine
from repro.fleet.subroutine import CallGraph, SubroutineSpec, build_random_call_graph


def simple_graph():
    graph = CallGraph()
    graph.add(SubroutineSpec("main", self_cost=0.0, parent="_start"))
    graph.add(SubroutineSpec("ns::A::f", self_cost=2.0, parent="main"))
    graph.add(SubroutineSpec("ns::A::g", self_cost=3.0, parent="main"))
    graph.add(SubroutineSpec("ns::B::h", self_cost=5.0, parent="ns::A::f"))
    return graph


class TestCallGraphConstruction:
    def test_duplicate_raises(self):
        graph = simple_graph()
        with pytest.raises(ValueError, match="duplicate"):
            graph.add(SubroutineSpec("main", self_cost=1.0))

    def test_unknown_parent_raises(self):
        with pytest.raises(ValueError, match="unknown parent"):
            simple_graph().add(SubroutineSpec("x", self_cost=1.0, parent="nope"))

    def test_negative_cost_raises(self):
        with pytest.raises(ValueError):
            SubroutineSpec("x", self_cost=-1.0)

    def test_contains_and_get(self):
        graph = simple_graph()
        assert "main" in graph
        assert graph.get("ns::A::f").self_cost == 2.0

    def test_children(self):
        assert set(simple_graph().children("main")) == {"ns::A::f", "ns::A::g"}


class TestInclusionProbabilities:
    def test_root_is_one(self):
        probs = simple_graph().inclusion_probabilities()
        assert probs["_start"] == pytest.approx(1.0)

    def test_parent_includes_children(self):
        probs = simple_graph().inclusion_probabilities()
        # f subtree: 2 + 5 = 7 of total 10.
        assert probs["ns::A::f"] == pytest.approx(0.7)
        assert probs["ns::B::h"] == pytest.approx(0.5)
        assert probs["ns::A::g"] == pytest.approx(0.3)

    def test_zero_total_cost(self):
        graph = CallGraph()
        graph.add(SubroutineSpec("a", self_cost=0.0))
        probs = graph.inclusion_probabilities()
        assert all(v == 0.0 for v in probs.values())


class TestMutation:
    def test_scale_cost(self):
        graph = simple_graph()
        graph.scale_cost("ns::A::g", 2.0)
        assert graph.get("ns::A::g").self_cost == 6.0

    def test_scale_negative_raises(self):
        with pytest.raises(ValueError):
            simple_graph().scale_cost("main", -1.0)

    def test_move_cost_conserves_total(self):
        graph = simple_graph()
        before = graph.total_cost()
        moved = graph.move_cost("ns::A::g", "ns::A::f", 0.5)
        assert moved == pytest.approx(1.5)
        assert graph.total_cost() == pytest.approx(before)
        assert graph.get("ns::A::g").self_cost == pytest.approx(1.5)
        assert graph.get("ns::A::f").self_cost == pytest.approx(3.5)

    def test_move_cost_invalid_fraction(self):
        with pytest.raises(ValueError):
            simple_graph().move_cost("main", "ns::A::f", 1.5)


class TestSampling:
    def test_sample_counts_match_probabilities(self, rng):
        graph = simple_graph()
        traces = graph.sample_traces(20_000, rng)
        total = sum(t.weight for t in traces)
        assert total == 20_000
        h_weight = sum(t.weight for t in traces if t.contains("ns::B::h"))
        assert h_weight / total == pytest.approx(0.5, abs=0.02)

    def test_traces_are_root_paths(self, rng):
        for trace in simple_graph().sample_traces(100, rng):
            assert trace.subroutines[0] == "_start"

    def test_zero_samples(self, rng):
        assert simple_graph().sample_traces(0, rng) == []

    def test_uncollapsed(self, rng):
        with patch.object(subroutine, "COLLAPSE_TRACES", False):
            traces = simple_graph().sample_traces(50, rng)
        assert len(traces) == 50
        assert all(t.weight == 1.0 for t in traces)

    def test_paths_probabilities_sum_to_one(self):
        paths = simple_graph().paths()
        assert sum(p.probability for p in paths) == pytest.approx(1.0)


class TestClone:
    def test_clone_is_deep(self):
        graph = simple_graph()
        copy = graph.clone()
        copy.scale_cost("ns::A::g", 10.0)
        assert graph.get("ns::A::g").self_cost == 3.0
        assert copy.names() == graph.names()


class TestRandomGraph:
    def test_size_and_determinism(self):
        g1 = build_random_call_graph(50, np.random.default_rng(3))
        g2 = build_random_call_graph(50, np.random.default_rng(3))
        assert len(g1.names()) == 51  # root included
        assert g1.names() == g2.names()
        assert g1.inclusion_probabilities() == g2.inclusion_probabilities()

    def test_endpoints_assigned_to_top_level(self):
        graph = build_random_call_graph(40, np.random.default_rng(0))
        endpoints = [
            graph.get(n).endpoint for n in graph.names() if graph.get(n).endpoint
        ]
        assert endpoints  # at least one top-level subroutine has an endpoint
