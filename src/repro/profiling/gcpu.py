"""gCPU derivation from stack-trace samples (§2, §4).

The normalized CPU usage of a subroutine is the fraction of stack-trace
samples it appears in: with 100 samples and ``foo`` present in 8, gCPU of
``foo`` is 8%.  A subroutine's gCPU includes its transitively invoked
children, because a sample containing a child also contains the parent
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.profiling.stacktrace import StackTrace

__all__ = ["GcpuTable", "compute_gcpu", "stack_trace_overlap"]


@dataclass
class GcpuTable:
    """Per-subroutine gCPU derived from one batch of samples.

    Attributes:
        total_weight: Total sample weight in the batch.
        weights: Sample weight containing each subroutine.
    """

    total_weight: float
    weights: Dict[str, float] = field(default_factory=dict)

    def gcpu(self, subroutine: str) -> float:
        """gCPU of ``subroutine`` in [0, 1]; 0.0 when never sampled."""
        if self.total_weight <= 0:
            return 0.0
        return self.weights.get(subroutine, 0.0) / self.total_weight

    def subroutines(self) -> List[str]:
        """All subroutines observed, sorted by descending gCPU."""
        return sorted(self.weights, key=lambda s: (-self.weights[s], s))

    def non_trivial(self, threshold: float = 1e-5) -> List[str]:
        """Subroutines with gCPU >= ``threshold``.

        The paper calls subroutines with gCPU >= 0.001% "non-trivial";
        the default threshold matches that definition.
        """
        return [s for s in self.subroutines() if self.gcpu(s) >= threshold]

    def as_dict(self) -> Dict[str, float]:
        """``{subroutine: gcpu}`` for every observed subroutine."""
        return {s: self.gcpu(s) for s in self.weights}


def compute_gcpu(samples: Iterable[StackTrace]) -> GcpuTable:
    """Aggregate stack-trace samples into a :class:`GcpuTable`.

    A subroutine appearing multiple times in one sample (recursion) still
    counts that sample once — gCPU is "fraction of samples containing the
    subroutine", not a frame count.
    """
    weights: Dict[str, float] = {}
    total = 0.0
    for trace in samples:
        total += trace.weight
        for subroutine in trace.names:
            weights[subroutine] = weights.get(subroutine, 0.0) + trace.weight
    return GcpuTable(total_weight=total, weights=weights)


def stack_trace_overlap(
    samples: Sequence[StackTrace],
    subroutine_a: str,
    subroutine_b: str,
) -> float:
    """Fraction of shared samples between two subroutines' gCPU inputs.

    PairwiseDedup's stack-trace-overlap feature (§5.5.2): since multiple
    subroutines appear in one sample, the same sample contributes to both
    of their gCPUs.  The overlap is ``|A ∩ B| / |A ∪ B|`` measured in
    sample weight, where A and B are the sample sets containing each
    subroutine.  Returns 0.0 when neither subroutine was sampled.
    """
    weight_a = weight_b = weight_both = 0.0
    for trace in samples:
        in_a = subroutine_a in trace.names
        in_b = subroutine_b in trace.names
        if in_a:
            weight_a += trace.weight
        if in_b:
            weight_b += trace.weight
        if in_a and in_b:
            weight_both += trace.weight
    union = weight_a + weight_b - weight_both
    return weight_both / union if union > 0 else 0.0
