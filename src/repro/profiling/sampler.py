"""A real in-process sampling profiler for Python threads.

This is the laptop-scale stand-in for PyPerf's eBPF probe: a background
thread periodically snapshots the call stacks of running Python threads
via ``sys._current_frames()`` and records them as :class:`StackTrace`
samples.  It exercises the identical sample -> gCPU path the paper's
profilers feed, and it lets the §6.6 overhead benchmark measure *actual*
sampling overhead on a CPU-bound workload.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.profiling.stacktrace import Frame, StackTrace

__all__ = ["ThreadStackSampler", "SamplerStats"]

#: Frames a sampled stack keeps; deeper stacks are truncated.
MAX_DEPTH = 128


@dataclass(frozen=True)
class SamplerStats:
    """Bookkeeping for a sampling session.

    Attributes:
        samples: Number of snapshots taken.
        duration: Wall-clock seconds the sampler ran.
        effective_rate: Achieved samples per second.
    """

    samples: int
    duration: float

    @property
    def effective_rate(self) -> float:
        return self.samples / self.duration if self.duration > 0 else 0.0


class ThreadStackSampler:
    """Samples the stacks of target Python threads at a fixed rate.

    Args:
        interval: Seconds between samples (1.0 matches the paper's
            highest production rate, used for tiny services).
        target_thread_ids: Thread idents to sample; defaults to every
            thread except the sampler itself.

    Stacks deeper than :data:`MAX_DEPTH` frames are truncated.

    Example::

        sampler = ThreadStackSampler(interval=0.01)
        sampler.start()
        run_workload()
        stats = sampler.stop()
        table = compute_gcpu(sampler.samples)
    """

    def __init__(
        self,
        interval: float = 1.0,
        target_thread_ids: Optional[List[int]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._targets = set(target_thread_ids) if target_thread_ids else None
        self.samples: List[StackTrace] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._sample_count = 0

    def start(self) -> None:
        """Begin sampling in a daemon thread.

        Raises:
            RuntimeError: If the sampler is already running.
        """
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._stop.clear()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._run, daemon=True, name="pyperf-sampler")
        self._thread.start()

    def stop(self) -> SamplerStats:
        """Stop sampling and return session statistics.

        Raises:
            RuntimeError: If the sampler was never started.
        """
        if self._thread is None or self._started_at is None:
            raise RuntimeError("sampler not running")
        self._stop.set()
        self._thread.join()
        duration = time.monotonic() - self._started_at
        self._thread = None
        return SamplerStats(samples=self._sample_count, duration=duration)

    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._snapshot(own_ident)

    def _snapshot(self, own_ident: int) -> None:
        frames_by_thread: Dict[int, object] = sys._current_frames()
        for ident, top in frames_by_thread.items():
            if ident == own_ident:
                continue
            if self._targets is not None and ident not in self._targets:
                continue
            stack: List[Frame] = []
            frame = top
            depth = 0
            while frame is not None and depth < MAX_DEPTH:
                code = frame.f_code
                name = f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
                stack.append(Frame(name, kind="python"))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # root-first, matching StackTrace convention
            self.samples.append(StackTrace(frames=tuple(stack)))
            self._sample_count += 1
