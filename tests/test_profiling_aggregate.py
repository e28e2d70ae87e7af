"""Tests for repro.profiling.aggregate (stack tries and differentials)."""

from unittest.mock import patch

import pytest

from repro.profiling import aggregate
from repro.profiling.aggregate import StackTrie, diff_tries
from repro.profiling.stacktrace import StackTrace


def traces(*specs):
    return [StackTrace.from_names(names, weight=w) for names, w in specs]


class TestStackTrie:
    def test_weights(self):
        trie = StackTrie().add_all(
            traces((["a", "b"], 3.0), (["a", "c"], 2.0), (["a"], 1.0))
        )
        assert trie.total_weight == 6.0
        a = trie.lookup(("a",))
        assert a.total_weight == 6.0
        assert a.self_weight == 1.0
        assert trie.lookup(("a", "b")).self_weight == 3.0

    def test_lookup_missing(self):
        trie = StackTrie().add_all(traces((["a"], 1.0)))
        assert trie.lookup(("z",)) is None
        assert trie.lookup(("a", "z")) is None

    def test_gcpu_matches_definition(self):
        trie = StackTrie().add_all(traces((["main", "foo"], 8.0), (["main", "bar"], 92.0)))
        assert trie.gcpu(("main", "foo")) == pytest.approx(0.08)
        assert trie.gcpu(("main",)) == pytest.approx(1.0)

    def test_gcpu_empty_trie(self):
        assert StackTrie().gcpu(("a",)) == 0.0

    def test_folded_format(self):
        trie = StackTrie().add_all(traces((["a", "b"], 2.0), (["a"], 1.0)))
        lines = trie.folded().splitlines()
        assert "a 1" in lines
        assert "a;b 2" in lines

    def test_folded_roundtrip_total(self):
        samples = traces((["a", "b", "c"], 5.0), (["a", "b"], 2.0), (["d"], 3.0))
        trie = StackTrie().add_all(samples)
        total = sum(float(line.rsplit(" ", 1)[1]) for line in trie.folded().splitlines())
        assert total == pytest.approx(10.0)


class TestDiffTries:
    def test_regression_surfaces_first(self):
        before = StackTrie().add_all(
            traces((["main", "parse"], 10.0), (["main", "render"], 90.0))
        )
        after = StackTrie().add_all(
            traces((["main", "parse"], 20.0), (["main", "render"], 80.0))
        )
        diffs = diff_tries(before, after)
        deltas = {d.path: d.delta for d in diffs}
        assert deltas[("main", "parse")] == pytest.approx(0.10)
        assert deltas[("main", "render")] == pytest.approx(-0.10)
        # Sorted by |delta|: parse/render before main (whose delta is 0
        # and therefore suppressed entirely).
        assert ("main",) not in deltas

    def test_new_path_appears(self):
        before = StackTrie().add_all(traces((["a"], 1.0)))
        after = StackTrie().add_all(traces((["a"], 1.0), (["b"], 1.0)))
        diffs = diff_tries(before, after)
        by_path = {d.path: d for d in diffs}
        assert by_path[("b",)].before == 0.0
        assert by_path[("b",)].after == pytest.approx(0.5)

    def test_min_delta_suppresses_noise(self):
        before = StackTrie().add_all(traces((["a"], 1000.0), (["b"], 1.0)))
        after = StackTrie().add_all(traces((["a"], 1000.0), (["b"], 1.1)))
        with patch.object(aggregate, "MIN_DELTA", 0.01):
            assert diff_tries(before, after) == []

    def test_different_sample_counts_normalized(self):
        before = StackTrie().add_all(traces((["a"], 10.0), (["b"], 10.0)))
        after = StackTrie().add_all(traces((["a"], 1000.0), (["b"], 1000.0)))
        assert diff_tries(before, after) == []
