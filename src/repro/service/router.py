"""Consistent-hash shard routing.

Maps series keys to shards the way the paper's serverless deployment
spreads ~800k series across workers: a hash ring with virtual nodes, so
(a) routing is deterministic across processes and restarts (the digest
is :func:`hashlib.blake2b`, immune to ``PYTHONHASHSEED``), (b) load
spreads evenly, and (c) a ring with one shard more or less maps every
other shard's keys the same — the property resharding would rely on.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, List

__all__ = ["ConsistentHashRouter", "RING_REPLICAS"]

#: Virtual nodes per shard on the ring; more of them smooth the load
#: distribution at the cost of a larger ring.
RING_REPLICAS = 64


def _hash64(key: str) -> int:
    """A stable 64-bit digest of ``key`` (process-independent)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ConsistentHashRouter:
    """A hash ring mapping series keys to shard ids.

    Args:
        shards: Initial shard ids (any hashable, typically ints), each
            placed at :data:`RING_REPLICAS` points.

    Example::

        router = ConsistentHashRouter(range(4))
        shard = router.shard_for("frontfaas.render_feed.gcpu")
    """

    def __init__(self, shards: Iterable[Hashable] = ()) -> None:
        self._points: List[int] = []
        self._owners: List[Hashable] = []
        self._shards: List[Hashable] = []
        for shard in shards:
            self.add_shard(shard)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: Hashable) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> List[Hashable]:
        """Registered shard ids, in insertion order."""
        return list(self._shards)

    def _ring_points(self, shard: Hashable) -> List[int]:
        return [_hash64(f"{shard!r}#{replica}") for replica in range(RING_REPLICAS)]

    def add_shard(self, shard: Hashable) -> None:
        """Add a shard to the ring.

        Raises:
            ValueError: When the shard is already registered.
        """
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already registered")
        self._shards.append(shard)
        for point in self._ring_points(shard):
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard)

    def shard_for(self, key: str) -> Hashable:
        """The shard owning ``key``.

        Raises:
            RuntimeError: When the ring is empty.
        """
        if not self._points:
            raise RuntimeError("router has no shards")
        index = bisect.bisect(self._points, _hash64(key))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[index]
