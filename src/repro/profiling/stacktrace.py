"""Stack-trace representation with frame metadata.

A :class:`StackTrace` is an ordered tuple of :class:`Frame` objects from
outermost caller to innermost callee.  Frames may carry metadata set via
``SetFrameMetadata()`` (§3), which FBDetect uses to detect regressions
that occur only under certain conditions (e.g. requests on behalf of a
specific category of users) and as a cost-domain grouping key (§5.4).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

__all__ = ["Frame", "StackTrace", "set_frame_metadata", "current_frame_metadata"]


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

    def with_metadata(self, metadata: str) -> "Frame":
        """A copy of this frame carrying ``metadata``."""
        return Frame(subroutine=self.subroutine, kind=self.kind, metadata=metadata)

    @property
    def class_name(self) -> Optional[str]:
        """The enclosing class, parsed from ``Namespace::Class::method`` names."""
        parts = self.subroutine.rsplit("::", 1)
        return parts[0] if len(parts) == 2 else None


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
    def from_names(
        cls, names: Sequence[str], kind: str = "native", weight: float = 1.0
    ) -> "StackTrace":
        """Build a trace from plain subroutine names."""
        return cls(frames=tuple(Frame(name, kind=kind) for name in names), weight=weight)

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

    def metadata_values(self) -> Tuple[str, ...]:
        """All frame-metadata annotations present in the stack."""
        return tuple(f.metadata for f in self.frames if f.metadata is not None)

    def key(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """Hashable identity used to collapse identical samples."""
        return tuple((f.subroutine, f.metadata) for f in self.frames)


# ---------------------------------------------------------------------------
# SetFrameMetadata: the in-process annotation API (§3).  Real services call
# this inside a request handler; our simulator and the real thread sampler
# both read the thread-local annotation stack when producing samples.
# ---------------------------------------------------------------------------

_frame_metadata = threading.local()


class set_frame_metadata:
    """Context manager annotating the current (simulated) stack frame.

    Mirrors FrontFaaS's ``SetFrameMetadata()``: while the context is
    active, samples taken of this thread carry the annotation, enabling
    metadata-annotated regression detection.

    Example::

        with set_frame_metadata("user_category:enterprise"):
            handle_request()
    """

    def __init__(self, metadata: str) -> None:
        self.metadata = metadata

    def __enter__(self) -> "set_frame_metadata":
        stack = getattr(_frame_metadata, "stack", None)
        if stack is None:
            stack = []
            _frame_metadata.stack = stack
        stack.append(self.metadata)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _frame_metadata.stack.pop()


def current_frame_metadata() -> Optional[str]:
    """The innermost active annotation of the calling thread, if any."""
    stack = getattr(_frame_metadata, "stack", None)
    return stack[-1] if stack else None
