"""PyPerf: merged Python + native stack reconstruction (Figure 5).

Sampling an interpreted program's OS thread yields the *interpreter's*
stack: CPython-internal frames, a sequence of ``_PyEval_EvalFrameDefault``
calls, and frames of native C/C++ libraries the Python code invoked.
PyPerf's key insight is that each ``_PyEval_EvalFrameDefault`` call in the
system stack maps precisely to one frame of CPython's *virtual call stack*
(VCS) — the linked list of Python frames whose head lives at a fixed
location in the interpreter.

This module reproduces that reconstruction faithfully on a simulated
CPython process: :class:`SimulatedCPythonProcess` models a process with a
system stack and a VCS, and :func:`merge_stacks` performs the walk that
the real PyPerf's eBPF probe performs in the kernel, producing an
end-to-end stack across Python code and the native libraries it calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.profiling.stacktrace import Frame, StackTrace

__all__ = [
    "EVAL_FRAME_SYMBOL",
    "VcsFrame",
    "SimulatedCPythonProcess",
    "merge_stacks",
    "PyPerfProfiler",
]

#: The CPython C function that executes one Python frame.  Every
#: occurrence in the system stack corresponds to exactly one VCS entry.
EVAL_FRAME_SYMBOL = "_PyEval_EvalFrameDefault"

#: Interpreter bootstrap frames per CPython version.  The paper: PyPerf
#: "handles various Python versions" — the VCS head location and the
#: interpreter-internal call chain differ across releases, so the probe
#: carries per-version layout profiles.  These are the (simulated)
#: bootstrap chains each version pushes before the first eval frame.
INTERPRETER_PROFILES = {
    "3.8": ("Py_RunMain", "pymain_run_python", "PyRun_SimpleFileExFlags"),
    "3.10": ("Py_RunMain", "pymain_run_python", "_PyRun_SimpleFileObject"),
    "3.11": ("Py_RunMain", "pymain_run_python", "_PyRun_SimpleFileObject", "run_mod"),
    "3.12": ("Py_RunMain", "pymain_run_python", "_PyRun_SimpleFileObject", "run_eval_code_obj"),
}


@dataclass(frozen=True)
class VcsFrame:
    """One frame of CPython's virtual call stack.

    Attributes:
        function: Python function name (source-code address analogue).
        metadata: Optional ``SetFrameMetadata`` annotation.
    """

    function: str
    metadata: Optional[str] = None


def merge_stacks(
    system_stack: Sequence[Frame],
    vcs: Sequence[VcsFrame],
) -> StackTrace:
    """Reconstruct the end-to-end stack from a system stack and a VCS.

    Walks the system stack root-to-leaf; each ``_PyEval_EvalFrameDefault``
    frame is replaced by the next unconsumed VCS frame (the VCS is ordered
    outermost Python call first, matching the eval-frame nesting order).
    CPython-internal frames between the root and the first eval frame are
    dropped (they are interpreter bookkeeping, not program cost); system
    and native frames are kept verbatim.

    Args:
        system_stack: Frames as an OS profiler would see them, root first.
        vcs: The Python program's virtual call stack, outermost first.

    Returns:
        The merged :class:`StackTrace` (Figure 5, right).

    Raises:
        ValueError: If the count of eval frames does not equal the VCS
            length — a corrupt sample in the real system, rejected rather
            than guessed at.
    """
    eval_count = sum(1 for f in system_stack if f.subroutine == EVAL_FRAME_SYMBOL)
    if eval_count != len(vcs):
        raise ValueError(
            f"corrupt sample: {eval_count} {EVAL_FRAME_SYMBOL} frames "
            f"but VCS has {len(vcs)} entries"
        )

    merged: List[Frame] = []
    vcs_iter = iter(vcs)
    for frame in system_stack:
        if frame.subroutine == EVAL_FRAME_SYMBOL:
            py = next(vcs_iter)
            merged.append(Frame(py.function, kind="python", metadata=py.metadata))
        elif frame.kind == "interpreter":
            # CPython-internal plumbing (ceval loop helpers, call shims):
            # invisible in the merged trace, exactly as PyPerf reports.
            continue
        else:
            merged.append(frame)
    return StackTrace(frames=tuple(merged))


@dataclass
class SimulatedCPythonProcess:
    """A CPython process model exposing what PyPerf's eBPF probe reads.

    The simulated fleet uses this to emit realistic samples for Python
    services: callers push Python calls (which grow both the system stack
    and the VCS) and native calls (system stack only), then a profiler
    snapshot performs the merge.

    Attributes:
        pid: Process id, for bookkeeping.
        python_version: Interpreter release; selects the bootstrap-frame
            layout from :data:`INTERPRETER_PROFILES` (the real PyPerf
            carries per-version VCS offsets the same way).
    """

    pid: int = 0
    python_version: str = "3.10"
    _system_stack: List[Frame] = field(default_factory=list)
    _vcs: List[VcsFrame] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.python_version not in INTERPRETER_PROFILES:
            raise ValueError(
                f"unsupported python_version {self.python_version!r}; "
                f"known: {sorted(INTERPRETER_PROFILES)}"
            )
        bootstrap = INTERPRETER_PROFILES[self.python_version]
        self._system_stack = [Frame("_start", kind="system")] + [
            Frame(symbol, kind="interpreter") for symbol in bootstrap
        ]
        self._vcs = []

    def call_python(self, function: str, metadata: Optional[str] = None) -> None:
        """Enter a Python function: one eval frame + one VCS entry."""
        self._system_stack.append(Frame(EVAL_FRAME_SYMBOL, kind="interpreter"))
        self._vcs.append(VcsFrame(function=function, metadata=metadata))

    def call_native(self, symbol: str) -> None:
        """Enter a native C/C++ library function (system stack only)."""
        self._system_stack.append(Frame(symbol, kind="native"))

    @property
    def system_stack(self) -> Tuple[Frame, ...]:
        """What a naive OS profiler would sample (interpreter frames visible)."""
        return tuple(self._system_stack)

    @property
    def vcs(self) -> Tuple[VcsFrame, ...]:
        """The Python virtual call stack, outermost first."""
        return tuple(self._vcs)


class PyPerfProfiler:
    """Takes merged-stack samples of simulated CPython processes.

    The caller decides when to sample (the paper: 1/1800 Hz for
    PythonFaaS, up to 1 Hz for tiny services like Invoicer).
    """

    def __init__(self) -> None:
        self.samples_taken = 0

    def sample(self, process: SimulatedCPythonProcess) -> StackTrace:
        """Snapshot one process into a merged end-to-end stack trace."""
        self.samples_taken += 1
        return merge_stacks(process.system_stack, process.vcs)

    def naive_sample(self, process: SimulatedCPythonProcess) -> StackTrace:
        """What a non-PyPerf OS profiler reports: the raw interpreter stack.

        Useful in tests and examples to demonstrate why plain ``perf``
        sampling of CPython is useless for subroutine attribution — every
        Python frame collapses to ``_PyEval_EvalFrameDefault``.
        """
        return StackTrace(frames=process.system_stack)
