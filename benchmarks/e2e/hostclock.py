"""Timing that does not move with the host's mood.

The reference box shares its cores: the same pure-Python loop takes
12 ms or 20 ms depending on what the neighbours are doing, in stretches
that last from half a second to half a minute, and identical runs of
the service swing by a fifth with it.  A bound of 10% on a throughput
cannot be checked against that.

So the driver measures the host while it measures the service.  A fixed
reference kernel runs at every phase boundary; a phase's seconds are
scaled by ``REFERENCE_KERNEL_S / (kernel seconds around the phase)``,
which turns them into seconds on the quiet reference box.  Time a phase
spent *waiting* rather than computing (the wire workload's delayed-ACK
stalls) does not stretch with the host and is left as it is.

Both readings are kept: corrected seconds feed the end-to-end metrics,
raw seconds and the probe readings stay in the run's details.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

_ARRAY = np.arange(4096, dtype=float)

#: What :func:`reference_kernel` takes on the 2-core reference box when
#: the neighbours are quiet: the 5th..10th percentile of 360 in-run
#: readings over six runs of two workloads (fastest 8.6 ms, median
#: 9.9 ms, slowest 19 ms).  Corrected seconds are seconds on that host.
REFERENCE_KERNEL_S = 0.0088


def reference_kernel() -> float:
    """Seconds the fixed reference work took just now.

    Interpreter work and numpy work in about the service's proportions,
    on a working set small enough to sit in cache: the reading should
    depend on the host's speed, not on what the previous phase left in
    memory.
    """
    started = time.perf_counter()
    table: Dict[int, tuple] = {}
    for i in range(60_000):
        table[i % 499] = (i, i * 0.5)
    x = _ARRAY
    for _ in range(400):
        x = np.sqrt(x * 1.0001 + 1.0)
    sorted(table.values())
    return time.perf_counter() - started


@dataclass
class Phase:
    """One timed stretch of driver work."""

    kind: str
    round: int
    wall_s: float
    cpu_s: float
    #: Reference-kernel seconds just before and just after.
    probe_before_s: float
    probe_after_s: float


class HostClock:
    """Times phases and probes the host's speed at every phase boundary.

    Attributes:
        waits_idle: Whether wall time beyond the process's own CPU time
            is idle waiting (a network stall) — left uncorrected — or
            work done elsewhere on the same host (worker processes),
            which slows down like everything else (the default).  Read
            when seconds are corrected, so it may be set after timing.
    """

    def __init__(self) -> None:
        self.waits_idle = False
        self.phases: List[Phase] = []
        self._last_probe = reference_kernel()

    @contextmanager
    def phase(self, kind: str, round: int = -1) -> Iterator[None]:
        before = self._last_probe
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            self._last_probe = reference_kernel()
            self.phases.append(Phase(kind, round, wall, cpu, before, self._last_probe))

    def slowdown(self, phase: Phase) -> float:
        """How much slower than the reference host ``phase`` ran."""
        return (phase.probe_before_s + phase.probe_after_s) / 2.0 / REFERENCE_KERNEL_S

    def corrected_s(self, phase: Phase) -> float:
        """``phase``'s seconds on the undisturbed host."""
        slowdown = self.slowdown(phase)
        if not self.waits_idle:
            return phase.wall_s / slowdown
        busy = min(phase.cpu_s, phase.wall_s)
        return (phase.wall_s - busy) + busy / slowdown

    def seconds(self, kind: str, corrected: bool = True) -> List[float]:
        """Per-phase seconds of one kind, in the order they ran."""
        return [
            self.corrected_s(phase) if corrected else phase.wall_s
            for phase in self.phases
            if phase.kind == kind
        ]

    def mean_slowdown(self) -> float:
        wall = sum(phase.wall_s for phase in self.phases)
        return sum(self.slowdown(p) * p.wall_s for p in self.phases) / wall if wall else 1.0
