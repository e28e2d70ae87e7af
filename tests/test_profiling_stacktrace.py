"""Tests for repro.profiling.stacktrace."""

import pickle

import pytest

from repro.profiling.stacktrace import StackTrace


class TestStackTrace:
    def test_from_names(self):
        trace = StackTrace.from_names(["a", "b", "c"])
        assert trace.subroutines == ("a", "b", "c")
        assert len(trace) == 3
        assert trace.leaf.subroutine == "c"

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            StackTrace.from_names(["a"], weight=0.0)

    def test_contains(self):
        trace = StackTrace.from_names(["a", "b"])
        assert trace.contains("a")
        assert not trace.contains("z")

    def test_callers_of(self):
        trace = StackTrace.from_names(["a", "b", "c", "b"])
        assert trace.callers_of("b") == ("a", "c")
        assert trace.callers_of("a") == ()

    def test_callees_of(self):
        trace = StackTrace.from_names(["a", "b", "c", "d"])
        assert trace.callees_of("b") == ("c", "d")
        assert trace.callees_of("d") == ()
        assert trace.callees_of("zzz") == ()

    def test_key_collapses_identical(self):
        t1 = StackTrace.from_names(["a", "b"])
        t2 = StackTrace.from_names(["a", "b"], weight=5.0)
        assert t1.key() == t2.key()

    def test_empty_trace(self):
        trace = StackTrace(frames=())
        assert trace.leaf is None
        assert len(trace) == 0
        assert trace.names == frozenset()

    def test_names_memo_stays_out_of_pickle_equality_and_hash(self):
        trace = StackTrace.from_names(["a", "b", "a"], weight=2.0)
        fresh = StackTrace.from_names(["a", "b", "a"], weight=2.0)
        cold = pickle.dumps(trace)
        assert trace.names == frozenset({"a", "b"})
        assert trace.names is trace.names  # built once
        assert pickle.dumps(trace) == cold
        assert trace == fresh and hash(trace) == hash(fresh)
        restored = pickle.loads(cold)
        assert restored == trace and "names" not in vars(restored)
        assert restored.contains("b") and not restored.contains("z")

