"""Tests for repro.profiling.pyperf (Figure 5 reconstruction)."""

import pytest

from repro.profiling.pyperf import (
    EVAL_FRAME_SYMBOL,
    PyPerfProfiler,
    SimulatedCPythonProcess,
    VcsFrame,
    merge_stacks,
)
from repro.profiling.stacktrace import Frame


class TestMergeStacks:
    def test_figure5_example(self):
        # System stack: _start, eval, eval, C-lib-foo (interpreter frames
        # elided); VCS: Py-funX, Py-funZ.
        system = [
            Frame("_start", kind="system"),
            Frame(EVAL_FRAME_SYMBOL, kind="interpreter"),
            Frame(EVAL_FRAME_SYMBOL, kind="interpreter"),
            Frame("C-lib-foo", kind="native"),
        ]
        vcs = [VcsFrame("Py-funX"), VcsFrame("Py-funZ")]
        merged = merge_stacks(system, vcs)
        assert merged.subroutines == ("_start", "Py-funX", "Py-funZ", "C-lib-foo")

    def test_interpreter_bookkeeping_dropped(self):
        system = [
            Frame("_start", kind="system"),
            Frame("Py_RunMain", kind="interpreter"),
            Frame(EVAL_FRAME_SYMBOL, kind="interpreter"),
        ]
        merged = merge_stacks(system, [VcsFrame("main")])
        assert merged.subroutines == ("_start", "main")

    def test_vcs_mismatch_raises(self):
        system = [Frame(EVAL_FRAME_SYMBOL, kind="interpreter")]
        with pytest.raises(ValueError, match="corrupt sample"):
            merge_stacks(system, [])

    def test_metadata_propagates(self):
        system = [Frame(EVAL_FRAME_SYMBOL, kind="interpreter")]
        merged = merge_stacks(system, [VcsFrame("handler", metadata="u:vip")])
        assert merged.frames[0].metadata == "u:vip"
        assert merged.frames[0].kind == "python"


class TestSimulatedCPythonProcess:
    def test_vcs_tracks_python_only(self):
        proc = SimulatedCPythonProcess()
        proc.call_python("a")
        proc.call_native("lib1")
        proc.call_python("b")
        assert [f.function for f in proc.vcs] == ["a", "b"]


class TestPyPerfProfiler:
    def _proc(self):
        proc = SimulatedCPythonProcess()
        proc.call_python("main")
        proc.call_python("handler")
        proc.call_native("json_dumps")
        return proc

    def test_sample_merges_end_to_end(self):
        profiler = PyPerfProfiler()
        trace = profiler.sample(self._proc())
        assert trace.subroutines == ("_start", "main", "handler", "json_dumps")
        assert profiler.samples_taken == 1

    def test_naive_sample_shows_interpreter_frames(self):
        profiler = PyPerfProfiler()
        naive = profiler.naive_sample(self._proc())
        # The naive OS-profiler view cannot name Python functions.
        names = naive.subroutines
        assert EVAL_FRAME_SYMBOL in names
        assert "main" not in names
        assert "handler" not in names

    def test_frame_kinds(self):
        trace = PyPerfProfiler().sample(self._proc())
        kinds = [f.kind for f in trace.frames]
        assert kinds == ["system", "python", "python", "native"]


class TestInterpreterVersions:
    """PyPerf "handles various Python versions" (§4): the bootstrap
    layouts differ, the merged trace does not."""

    def test_all_profiles_constructible(self):
        from repro.profiling.pyperf import INTERPRETER_PROFILES

        for version in INTERPRETER_PROFILES:
            proc = SimulatedCPythonProcess(python_version=version)
            proc.call_python("main")
            merged = PyPerfProfiler().sample(proc)
            # Bootstrap differences are invisible after the merge.
            assert merged.subroutines == ("_start", "main")

    def test_unknown_version_raises(self):
        with pytest.raises(ValueError, match="unsupported python_version"):
            SimulatedCPythonProcess(python_version="2.7")

    def test_naive_view_differs_across_versions(self):
        old = SimulatedCPythonProcess(python_version="3.8")
        new = SimulatedCPythonProcess(python_version="3.12")
        profiler = PyPerfProfiler()
        assert (
            profiler.naive_sample(old).subroutines
            != profiler.naive_sample(new).subroutines
        )
