"""Stack-trace representation with frame metadata.

A :class:`StackTrace` is an ordered tuple of :class:`Frame` objects from
outermost caller to innermost callee.  Frames may carry metadata set via
``SetFrameMetadata()`` (§3), which FBDetect uses to detect regressions
that occur only under certain conditions (e.g. requests on behalf of a
specific category of users) and as a cost-domain grouping key (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

__all__ = ["Frame", "StackTrace"]


@dataclass(frozen=True)
class Frame:
    """One stack frame.

    Attributes:
        subroutine: Fully qualified subroutine name, e.g.
            ``"feed::Ranker::score"``.
        kind: Origin of the frame: ``"python"``, ``"native"``,
            ``"interpreter"`` (CPython-internal), or ``"system"``.
        metadata: Optional ``SetFrameMetadata`` annotation.
    """

    subroutine: str
    kind: str = "native"
    metadata: Optional[str] = None


@dataclass(frozen=True)
class StackTrace:
    """An ordered stack, outermost caller first.

    Attributes:
        frames: The frames, root (e.g. ``_start``) to leaf.
        weight: Sample weight — the number of identical samples this
            trace represents (collapsed storage for hot stacks).
    """

    frames: Tuple[Frame, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.frames, tuple):
            object.__setattr__(self, "frames", tuple(self.frames))
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def __getstate__(self) -> Dict[str, object]:
        # The fields alone: the ``names`` memo never rides a pickle.
        return {"frames": self.frames, "weight": self.weight}

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    @classmethod
    def from_names(cls, names: Sequence[str], weight: float = 1.0) -> "StackTrace":
        """Build a trace of native frames from plain subroutine names."""
        return cls(frames=tuple(Frame(name) for name in names), weight=weight)

    @property
    def subroutines(self) -> Tuple[str, ...]:
        """Subroutine names, root to leaf."""
        return tuple(frame.subroutine for frame in self.frames)

    @cached_property
    def names(self) -> FrozenSet[str]:
        """The distinct subroutine names in the stack, built once per trace."""
        return frozenset(frame.subroutine for frame in self.frames)

    @property
    def leaf(self) -> Optional[Frame]:
        """The innermost frame (on-CPU at sample time), or ``None``."""
        return self.frames[-1] if self.frames else None

    def contains(self, subroutine: str) -> bool:
        """Whether ``subroutine`` appears anywhere in the stack."""
        return subroutine in self.names

    def callers_of(self, subroutine: str) -> Tuple[str, ...]:
        """Direct (immediate upstream) callers of ``subroutine`` in this trace."""
        callers = []
        for i, frame in enumerate(self.frames):
            if frame.subroutine == subroutine and i > 0:
                callers.append(self.frames[i - 1].subroutine)
        return tuple(callers)

    def callees_of(self, subroutine: str) -> Tuple[str, ...]:
        """All subroutines transitively invoked below ``subroutine``."""
        for i, frame in enumerate(self.frames):
            if frame.subroutine == subroutine:
                return tuple(f.subroutine for f in self.frames[i + 1 :])
        return ()

    def key(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """Hashable identity used to collapse identical samples."""
        return tuple((f.subroutine, f.metadata) for f in self.frames)

