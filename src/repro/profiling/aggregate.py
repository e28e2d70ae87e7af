"""Stack-trace aggregation: tries, folded stacks, and differentials.

Investigating a reported regression means looking at where CPU went.
This module aggregates stack-trace samples into a weighted prefix trie
(the data structure behind flame graphs), renders it in Brendan Gregg's
folded-stacks text format, and diffs two tries — the "before vs after"
view a developer opens when FBDetect files a ticket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.profiling.stacktrace import StackTrace

__all__ = ["StackTrieNode", "StackTrie", "diff_tries", "FrameDiff"]

#: :func:`diff_tries` suppresses paths whose relative weight moves less.
MIN_DELTA = 1e-6


@dataclass
class StackTrieNode:
    """One node of the aggregation trie.

    Attributes:
        name: Subroutine name of this frame.
        self_weight: Sample weight ending exactly at this frame.
        total_weight: Sample weight passing through this frame
            (self + all descendants).
        children: Child frames by name.
    """

    name: str
    self_weight: float = 0.0
    total_weight: float = 0.0
    children: Dict[str, "StackTrieNode"] = field(default_factory=dict)

    def child(self, name: str) -> "StackTrieNode":
        """Get or create the child named ``name``."""
        node = self.children.get(name)
        if node is None:
            node = StackTrieNode(name=name)
            self.children[name] = node
        return node


class StackTrie:
    """A weighted prefix trie over stack traces.

    Example::

        trie = StackTrie()
        trie.add_all(samples)
        print(trie.folded())          # flamegraph-ready text
        hot = trie.hottest_paths(5)   # top root-to-leaf paths
    """

    def __init__(self) -> None:
        self.root = StackTrieNode(name="<root>")

    @property
    def total_weight(self) -> float:
        return self.root.total_weight

    def add(self, trace: StackTrace) -> None:
        """Fold one trace into the trie."""
        node = self.root
        node.total_weight += trace.weight
        for frame in trace.frames:
            node = node.child(frame.subroutine)
            node.total_weight += trace.weight
        node.self_weight += trace.weight

    def add_all(self, traces: Iterable[StackTrace]) -> "StackTrie":
        for trace in traces:
            self.add(trace)
        return self

    def lookup(self, path: Tuple[str, ...]) -> Optional[StackTrieNode]:
        """The node at ``path`` (root-relative), or ``None``."""
        node = self.root
        for name in path:
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def gcpu(self, path: Tuple[str, ...]) -> float:
        """Relative weight of a path's subtree (its gCPU contribution)."""
        node = self.lookup(path)
        if node is None or self.total_weight <= 0:
            return 0.0
        return node.total_weight / self.total_weight

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def folded(self) -> str:
        """Brendan Gregg folded-stacks format: ``a;b;c weight`` per line.

        Weights are the *self* weights of each path, so the output feeds
        straight into any flame-graph renderer.
        """
        lines: List[str] = []

        def walk(node: StackTrieNode, prefix: List[str]) -> None:
            path = prefix + [node.name]
            if node.self_weight > 0:
                lines.append(f"{';'.join(path)} {node.self_weight:g}")
            for child in sorted(node.children.values(), key=lambda c: c.name):
                walk(child, path)

        for child in sorted(self.root.children.values(), key=lambda c: c.name):
            walk(child, [])
        return "\n".join(lines)


@dataclass(frozen=True)
class FrameDiff:
    """One path's weight change between two tries.

    Attributes:
        path: Root-relative frame path.
        before: Relative subtree weight in the baseline trie.
        after: Relative subtree weight in the comparison trie.
    """

    path: Tuple[str, ...]
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before


def diff_tries(before: StackTrie, after: StackTrie) -> List[FrameDiff]:
    """Differential view: paths whose relative weight changed.

    Both tries are normalized to relative weights so fleets of different
    sample counts compare fairly.  Results are sorted by descending
    absolute delta — the first entries are where the regression lives.
    Paths moving less than :data:`MIN_DELTA` are left out.

    Args:
        before: Baseline samples (pre-change).
        after: Comparison samples (post-change).
    """
    paths: Dict[Tuple[str, ...], FrameDiff] = {}

    def collect(trie: StackTrie, is_before: bool) -> None:
        total = trie.total_weight or 1.0

        def walk(node: StackTrieNode, prefix: Tuple[str, ...]) -> None:
            path = prefix + (node.name,)
            relative = node.total_weight / total
            existing = paths.get(path)
            if existing is None:
                paths[path] = FrameDiff(
                    path=path,
                    before=relative if is_before else 0.0,
                    after=0.0 if is_before else relative,
                )
            else:
                paths[path] = FrameDiff(
                    path=path,
                    before=existing.before + (relative if is_before else 0.0),
                    after=existing.after + (0.0 if is_before else relative),
                )
            for child in node.children.values():
                walk(child, path)

        for child in trie.root.children.values():
            walk(child, ())

    collect(before, is_before=True)
    collect(after, is_before=False)
    diffs = [d for d in paths.values() if abs(d.delta) >= MIN_DELTA]
    diffs.sort(key=lambda d: (-abs(d.delta), d.path))
    return diffs
