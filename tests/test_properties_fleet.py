"""Property-based tests on fleet and pipeline invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fleet.events import TransientEvent, TransientEventKind
from repro.fleet.subroutine import CallGraph, SubroutineSpec
from repro.profiling.aggregate import StackTrie
from repro.tsdb import TimeSeries, WindowSpec


def graph_from_spec(costs):
    """Build a chain-with-branches graph from a list of costs."""
    graph = CallGraph()
    parents = ["_start"]
    for i, cost in enumerate(costs):
        parent = parents[i % len(parents)]
        name = f"n{i}"
        graph.add(SubroutineSpec(name, self_cost=cost, parent=parent))
        parents.append(name)
    return graph


cost_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestCallGraphProperties:
    @given(cost_lists)
    def test_inclusion_probabilities_bounded(self, costs):
        graph = graph_from_spec(costs)
        probabilities = graph.inclusion_probabilities()
        for value in probabilities.values():
            assert -1e-9 <= value <= 1.0 + 1e-9

    @given(cost_lists)
    def test_root_inclusion_is_total(self, costs):
        assume(sum(costs) > 0)
        graph = graph_from_spec(costs)
        assert graph.inclusion_probabilities()["_start"] == pytest.approx(1.0)

    @given(cost_lists)
    def test_parent_dominates_child(self, costs):
        graph = graph_from_spec(costs)
        probabilities = graph.inclusion_probabilities()
        for name in graph.names():
            parent = graph.get(name).parent
            if parent is not None:
                assert probabilities[parent] >= probabilities[name] - 1e-9

    @given(
        cost_lists,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    )
    def test_move_cost_conserves_total(self, costs, fraction, i, j):
        assume(i < len(costs) and j < len(costs) and i != j)
        graph = graph_from_spec(costs)
        total_before = graph.total_cost()
        graph.move_cost(f"n{i}", f"n{j}", fraction)
        assert graph.total_cost() == pytest.approx(total_before, rel=1e-9, abs=1e-9)

    @given(cost_lists, st.integers(min_value=1, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_sample_weights_sum_to_n(self, costs, n_samples):
        assume(sum(costs) > 0)
        graph = graph_from_spec(costs)
        traces = graph.sample_traces(n_samples, np.random.default_rng(0))
        assert sum(t.weight for t in traces) == pytest.approx(n_samples)

    @given(cost_lists, st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_trie_gcpu_matches_graph_inclusion_in_expectation(self, costs, n_samples):
        assume(sum(costs) > 1e-6)
        graph = graph_from_spec(costs)
        traces = graph.sample_traces(50_000, np.random.default_rng(1))
        trie = StackTrie().add_all(traces)
        probabilities = graph.inclusion_probabilities()
        # Spot-check the first subroutine's empirical inclusion.
        name = "n0"
        path_prefix = None
        for trace in traces:
            if name in trace.subroutines:
                idx = trace.subroutines.index(name)
                path_prefix = trace.subroutines[: idx + 1]
                break
        assume(path_prefix is not None)
        assert trie.gcpu(tuple(path_prefix)) == pytest.approx(
            probabilities[name], abs=0.02
        )


class TestEventProperties:
    kinds = st.sampled_from(list(TransientEventKind))

    @given(
        kinds,
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=-1e6, max_value=2e6, allow_nan=False),
    )
    def test_multiplier_identity_outside_window(self, kind, start, duration, intensity, t):
        event = TransientEvent(kind, start=start, duration=duration, intensity=intensity)
        if not event.active_at(t):
            for metric in ("cpu", "throughput", "latency", "error_rate"):
                assert event.multiplier(metric, t) == 1.0

    @given(kinds, st.floats(min_value=0.1, max_value=1e4, allow_nan=False))
    def test_zero_intensity_is_identity(self, kind, duration):
        event = TransientEvent(kind, start=0.0, duration=duration, intensity=0.0)
        assert event.multiplier("cpu", duration / 2) == pytest.approx(1.0)


class TestWindowProperties:
    @given(
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_windows_partition_series(self, historic, analysis, extended, n_points):
        spec = WindowSpec(historic=historic, analysis=analysis, extended=extended)
        series = TimeSeries("s")
        for i in range(n_points):
            series.append(float(i), float(i))
        view = spec.view(series, now=float(n_points))
        # The three windows are disjoint and ordered; together they cover
        # exactly the points within [now - total, now).
        covered = view.historic.size + view.analysis.size + view.extended.size
        expected = sum(
            1 for i in range(n_points) if float(n_points) - spec.total <= i < n_points
        )
        assert covered == expected
        assert np.array_equal(view.full, np.sort(view.full))
