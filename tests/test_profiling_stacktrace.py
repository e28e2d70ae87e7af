"""Tests for repro.profiling.stacktrace."""

import pickle
import threading

import pytest

from repro.profiling.stacktrace import (
    Frame,
    StackTrace,
    current_frame_metadata,
    set_frame_metadata,
)


class TestFrame:
    def test_class_name_parsing(self):
        assert Frame("ns::Klass::method").class_name == "ns::Klass"
        assert Frame("plain_function").class_name is None

    def test_with_metadata(self):
        frame = Frame("f").with_metadata("user:vip")
        assert frame.metadata == "user:vip"
        assert frame.subroutine == "f"


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

    def test_metadata_values(self):
        frames = (Frame("a"), Frame("b", metadata="m1"), Frame("c", metadata="m2"))
        assert StackTrace(frames=frames).metadata_values() == ("m1", "m2")

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


class TestSetFrameMetadata:
    def test_context_manager(self):
        assert current_frame_metadata() is None
        with set_frame_metadata("user_category:enterprise"):
            assert current_frame_metadata() == "user_category:enterprise"
        assert current_frame_metadata() is None

    def test_nesting_innermost_wins(self):
        with set_frame_metadata("outer"):
            with set_frame_metadata("inner"):
                assert current_frame_metadata() == "inner"
            assert current_frame_metadata() == "outer"

    def test_thread_local(self):
        results = {}

        def worker():
            results["other"] = current_frame_metadata()

        with set_frame_metadata("main-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert results["other"] is None
