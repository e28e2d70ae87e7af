"""Subroutine call-graph model.

A service is modelled as a tree of subroutines rooted at an entry frame.
Each node has a *self cost* — the probability mass of a stack sample
ending (on-CPU) in that subroutine.  A stack-trace sample is a random
root-to-leaf-frame path drawn proportionally to self costs, so a
subroutine's inclusion probability (= its expected gCPU) is its own self
cost plus that of all descendants, exactly matching the paper's "the
gCPU of a subroutine includes the child subroutines recursively invoked
by it" (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.profiling.stacktrace import Frame, StackTrace

__all__ = ["SubroutineSpec", "CallPath", "CallGraph"]

#: The root frame of every call graph.
ROOT = "_start"
#: :meth:`CallGraph.sample_traces` merges identical traces into one
#: weighted trace (the storage format of production profilers).
COLLAPSE_TRACES = True


@dataclass
class SubroutineSpec:
    """One subroutine in the call graph.

    Attributes:
        name: Fully qualified name (``Namespace::Class::method`` style
            names let the cost-shift detector derive class domains).
        self_cost: Relative probability of a sample being on-CPU inside
            this subroutine's own code (not its callees).  Costs are
            normalized graph-wide; only ratios matter.
        parent: Caller's name, or ``None`` for the root.
        endpoint: Optional endpoint this subroutine serves, for
            endpoint-level regression detection.
        metadata: Optional ``SetFrameMetadata`` annotation attached to
            this subroutine's frames.
    """

    name: str
    self_cost: float
    parent: Optional[str] = None
    endpoint: Optional[str] = None
    metadata: Optional[str] = None

    def __post_init__(self) -> None:
        if self.self_cost < 0:
            raise ValueError(f"self_cost of {self.name} must be >= 0")


@dataclass(frozen=True)
class CallPath:
    """A root-to-node path with its sampling probability."""

    subroutines: Tuple[str, ...]
    probability: float


class CallGraph:
    """A mutable call tree supporting sampling and cost edits, rooted at
    the :data:`ROOT` frame (which starts with no self cost).

    Example::

        graph = CallGraph()
        graph.add(SubroutineSpec("main::handle", self_cost=1.0, parent="_start"))
        graph.add(SubroutineSpec("util::parse", self_cost=0.5, parent="main::handle"))
        samples = graph.sample_traces(1000, rng)
    """

    def __init__(self) -> None:
        self.root = ROOT
        self._nodes: Dict[str, SubroutineSpec] = {
            ROOT: SubroutineSpec(name=ROOT, self_cost=0.0, parent=None)
        }
        self._children: Dict[str, List[str]] = {ROOT: []}

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------

    def add(self, spec: SubroutineSpec) -> None:
        """Add a subroutine under its declared parent.

        Raises:
            ValueError: If the name exists or the parent is unknown.
        """
        if spec.name in self._nodes:
            raise ValueError(f"duplicate subroutine {spec.name}")
        parent = spec.parent or self.root
        if parent not in self._nodes:
            raise ValueError(f"unknown parent {parent} for {spec.name}")
        spec.parent = parent
        self._nodes[spec.name] = spec
        self._children[spec.name] = []
        self._children[parent].append(spec.name)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def get(self, name: str) -> SubroutineSpec:
        """The spec for ``name``.

        Raises:
            KeyError: If unknown.
        """
        return self._nodes[name]

    def names(self) -> List[str]:
        """All subroutine names, root included, sorted."""
        return sorted(self._nodes)

    def children(self, name: str) -> Tuple[str, ...]:
        return tuple(self._children[name])

    def scale_cost(self, name: str, factor: float) -> None:
        """Multiply a subroutine's self cost (a performance regression
        or improvement introduced by a code change).

        Raises:
            KeyError: If unknown; ValueError: on a negative factor.
        """
        if factor < 0:
            raise ValueError("factor must be >= 0")
        self._nodes[name].self_cost *= factor

    def move_cost(self, source: str, target: str, fraction: float) -> float:
        """Shift a fraction of ``source``'s self cost to ``target``.

        This models code refactoring that moves code across subroutines
        without changing total cost — the Figure 1(b) false-positive
        source.  Returns the amount moved.

        Raises:
            KeyError: On unknown subroutines.
            ValueError: If fraction is outside [0, 1].
        """
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        moved = self._nodes[source].self_cost * fraction
        self._nodes[source].self_cost -= moved
        self._nodes[target].self_cost += moved
        return moved

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _path_to(self, name: str) -> Tuple[str, ...]:
        path: List[str] = []
        node: Optional[str] = name
        while node is not None:
            path.append(node)
            node = self._nodes[node].parent
        return tuple(reversed(path))

    def total_cost(self) -> float:
        """Sum of self costs graph-wide (the normalization constant)."""
        return sum(node.self_cost for node in self._nodes.values())

    def paths(self) -> List[CallPath]:
        """All root-to-node paths with positive sampling probability."""
        total = self.total_cost()
        if total <= 0:
            return []
        return [
            CallPath(subroutines=self._path_to(name), probability=node.self_cost / total)
            for name, node in sorted(self._nodes.items())
            if node.self_cost > 0
        ]

    def inclusion_probabilities(self) -> Dict[str, float]:
        """Expected gCPU of every subroutine.

        A subroutine appears in a sample whenever the sample lands in it
        or any descendant, so its inclusion probability is the normalized
        sum of self costs over its subtree.
        """
        total = self.total_cost()
        result: Dict[str, float] = {}

        def subtree_cost(name: str) -> float:
            cost = self._nodes[name].self_cost
            for child in self._children[name]:
                cost += subtree_cost(child)
            result[name] = cost
            return cost

        subtree_cost(self.root)
        if total > 0:
            for name in result:
                result[name] /= total
        return result

    def sample_traces(
        self,
        n_samples: int,
        rng: np.random.Generator,
    ) -> List[StackTrace]:
        """Draw ``n_samples`` stack traces from the cost distribution.

        Args:
            n_samples: Number of samples.
            rng: Random generator.

        Returns:
            Stack traces, merged by :data:`COLLAPSE_TRACES`; their
            weights sum to ``n_samples``.
        """
        paths = self.paths()
        if not paths or n_samples <= 0:
            return []
        probabilities = np.array([p.probability for p in paths])
        probabilities /= probabilities.sum()
        counts = rng.multinomial(n_samples, probabilities)

        traces: List[StackTrace] = []
        for path, count in zip(paths, counts):
            if count == 0:
                continue
            frames = tuple(
                Frame(
                    name,
                    kind="native",
                    metadata=self._nodes[name].metadata,
                )
                for name in path.subroutines
            )
            if COLLAPSE_TRACES:
                traces.append(StackTrace(frames=frames, weight=float(count)))
            else:
                traces.extend(StackTrace(frames=frames) for _ in range(count))
        return traces

    def clone(self) -> "CallGraph":
        """Deep copy (used to snapshot pre-change state)."""
        copy = CallGraph()
        copy._nodes[self.root].self_cost = self._nodes[self.root].self_cost
        order = [self.root]
        seen = {self.root}
        while order:
            name = order.pop(0)
            for child in self._children[name]:
                if child in seen:
                    continue
                node = self._nodes[child]
                copy.add(
                    SubroutineSpec(
                        name=node.name,
                        self_cost=node.self_cost,
                        parent=node.parent,
                        endpoint=node.endpoint,
                        metadata=node.metadata,
                    )
                )
                order.append(child)
                seen.add(child)
        return copy


def build_random_call_graph(
    n_subroutines: int,
    rng: np.random.Generator,
    n_classes: int = 10,
) -> CallGraph:
    """Generate a realistic random service call graph.

    Subroutine self costs are log-normal with sigma 1 (a few hot
    subroutines, a long tail of cold ones — matching the paper's
    observation that non-trivial subroutines have a median gCPU of
    0.0083%).  A node has four children on average, and top-level
    subroutines serve five endpoints in turn.

    Args:
        n_subroutines: Nodes to create, excluding the root.
        rng: Random generator.
        n_classes: Number of ``Class::method`` groupings.

    Returns:
        A populated :class:`CallGraph`.
    """
    graph = CallGraph()
    names: List[str] = []
    for i in range(n_subroutines):
        class_id = i % n_classes
        name = f"svc::Class{class_id}::method_{i}"
        if names and rng.random() > 0.25:
            parent = names[int(rng.integers(0, len(names)))]
        else:
            parent = ROOT
        endpoint = f"/endpoint/{i % 5}" if parent == ROOT else None
        graph.add(
            SubroutineSpec(
                name=name,
                self_cost=float(rng.lognormal(mean=0.0, sigma=1.0)),
                parent=parent,
                endpoint=endpoint,
            )
        )
        names.append(name)
    return graph
