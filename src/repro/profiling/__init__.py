"""Fleet-wide stack-trace profiling substrate (§4).

FBDetect derives per-subroutine relative CPU usage (gCPU) from periodic
stack-trace samples: if subroutine ``foo`` appears in 8 of 100 samples,
its gCPU is 8%.  This subpackage provides:

- :mod:`repro.profiling.stacktrace` — frames, stack traces and
  ``SetFrameMetadata``-style frame annotations.
- :mod:`repro.profiling.pyperf` — the PyPerf merged-stack reconstruction
  of Figure 5, operating on simulated CPython system stacks and virtual
  call stacks.
- :mod:`repro.profiling.sampler` — a *real* in-process sampling profiler
  for Python threads, used to measure profiling overhead (§6.6).
- :mod:`repro.profiling.gcpu` — gCPU computation from sample sets.
- :mod:`repro.profiling.collector` — fleet-wide sample collection into
  the time-series database.
"""

from repro.profiling.collector import FleetProfileCollector
from repro.profiling.gcpu import GcpuTable, compute_gcpu, stack_trace_overlap
from repro.profiling.pyperf import (
    EVAL_FRAME_SYMBOL,
    PyPerfProfiler,
    SimulatedCPythonProcess,
    merge_stacks,
)
from repro.profiling.sampler import SamplerStats, ThreadStackSampler
from repro.profiling.stacktrace import Frame, StackTrace

__all__ = [
    "EVAL_FRAME_SYMBOL",
    "FleetProfileCollector",
    "Frame",
    "GcpuTable",
    "PyPerfProfiler",
    "SamplerStats",
    "SimulatedCPythonProcess",
    "StackTrace",
    "ThreadStackSampler",
    "compute_gcpu",
    "merge_stacks",
    "stack_trace_overlap",
]
