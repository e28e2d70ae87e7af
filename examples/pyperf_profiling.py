#!/usr/bin/env python3
"""PyPerf: end-to-end Python stack traces, and real sampling overhead.

Part 1 demonstrates the Figure 5 reconstruction: a simulated CPython
process is sampled naively (interpreter frames only — useless for
attribution) and via PyPerf's virtual-call-stack merge (full Python +
native stack).

Part 2 runs the real in-process thread sampler against a live CPU-bound
workload (serialize + compress + write, the paper's §6.6 microbenchmark)
and derives gCPU for the workload's own functions.

Run:  python examples/pyperf_profiling.py
"""

import json
import tempfile
import threading
import time
import zlib

from repro.profiling import (
    PyPerfProfiler,
    SimulatedCPythonProcess,
    ThreadStackSampler,
    compute_gcpu,
)


def part1_merged_stacks() -> None:
    print("=== Part 1: virtual-call-stack merge (Figure 5) ===\n")
    process = SimulatedCPythonProcess(pid=4242)
    process.call_python("main")
    process.call_python("handle_request", metadata="user_category:enterprise")
    process.call_python("render_feed")
    process.call_native("zlib_compress")

    profiler = PyPerfProfiler()
    naive = profiler.naive_sample(process)
    merged = profiler.sample(process)

    print("naive OS-profiler stack (what plain `perf` sees):")
    for frame in naive.frames:
        print(f"  [{frame.kind:11s}] {frame.subroutine}")
    print("\nPyPerf merged stack (Python + native, end to end):")
    for frame in merged.frames:
        annotation = f"  @{frame.metadata}" if frame.metadata else ""
        print(f"  [{frame.kind:11s}] {frame.subroutine}{annotation}")
    print()


def cpu_workload(stop: threading.Event, counters: dict) -> None:
    """The §6.6 microbenchmark: serialize, compress, write, repeatedly."""
    payload = {"rows": [{"id": i, "value": i * 3.14} for i in range(2_000)]}
    with tempfile.TemporaryFile() as sink:
        while not stop.is_set():
            serialized = serialize(payload)
            compressed = compress(serialized)
            sink.seek(0)
            sink.write(compressed)
            counters["iterations"] += 1


def serialize(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def compress(data: bytes) -> bytes:
    return zlib.compress(data, level=6)


def part2_real_sampler(duration: float = 2.0) -> None:
    print("=== Part 2: real in-process sampling of a live workload ===\n")
    stop = threading.Event()
    counters = {"iterations": 0}
    worker = threading.Thread(target=cpu_workload, args=(stop, counters), daemon=True)
    worker.start()

    sampler = ThreadStackSampler(interval=0.01, target_thread_ids=[worker.ident])
    sampler.start()
    time.sleep(duration)
    stats = sampler.stop()
    stop.set()
    worker.join()

    print(
        f"collected {stats.samples} samples in {stats.duration:.2f}s "
        f"({stats.effective_rate:.0f} Hz); workload ran "
        f"{counters['iterations']} iterations"
    )

    table = compute_gcpu(sampler.samples)
    print("\ntop subroutines by gCPU (relative CPU share):")
    for name in table.subroutines()[:8]:
        print(f"  {table.gcpu(name) * 100:6.1f}%  {name}")


if __name__ == "__main__":
    part1_merged_stacks()
    part2_real_sampler()
