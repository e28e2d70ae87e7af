"""Tests for repro.service.router (consistent-hash shard routing)."""

from unittest.mock import patch

import pytest

from repro.service import ConsistentHashRouter
from repro.service import router as ring


KEYS = [f"svc{i % 7}.sub{i}.gcpu" for i in range(1000)]


def distribution(router):
    """Per-shard counts of :data:`KEYS`."""
    counts = {shard: 0 for shard in router.shards}
    for key in KEYS:
        counts[router.shard_for(key)] += 1
    return counts


class TestDeterminism:
    def test_same_key_same_shard(self):
        router = ConsistentHashRouter(range(8))
        assert all(router.shard_for(k) == router.shard_for(k) for k in KEYS)

    def test_independent_instances_agree(self):
        a = ConsistentHashRouter(range(8))
        b = ConsistentHashRouter(range(8))
        assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]

    def test_insertion_order_irrelevant(self):
        a = ConsistentHashRouter([0, 1, 2, 3])
        b = ConsistentHashRouter([3, 1, 0, 2])
        assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]

    def test_single_shard_gets_everything(self):
        router = ConsistentHashRouter([0])
        assert set(distribution(router).values()) == {len(KEYS)}


class TestBalance:
    def test_every_shard_used(self):
        router = ConsistentHashRouter(range(8))
        counts = distribution(router)
        assert all(count > 0 for count in counts.values())

    def test_no_shard_dominates(self):
        router = ConsistentHashRouter(range(8))
        counts = distribution(router)
        mean = len(KEYS) / len(counts)
        assert max(counts.values()) < 3 * mean

    def test_more_replicas_smooth_distribution(self):
        with patch.object(ring, "RING_REPLICAS", 4):
            coarse = ConsistentHashRouter(range(8))
        with patch.object(ring, "RING_REPLICAS", 256):
            fine = ConsistentHashRouter(range(8))

        def spread(router):
            counts = distribution(router)
            return max(counts.values()) - min(counts.values())

        assert spread(fine) <= spread(coarse)


class TestMembership:
    def test_remove_only_remaps_removed_shards_keys(self):
        router = ConsistentHashRouter(range(8))
        before = {k: router.shard_for(k) for k in KEYS}
        without = ConsistentHashRouter([shard for shard in range(8) if shard != 3])
        for key, owner in before.items():
            if owner != 3:
                assert without.shard_for(key) == owner
            else:
                assert without.shard_for(key) != 3

    def test_add_restores_original_mapping(self):
        router = ConsistentHashRouter(range(8))
        before = {k: router.shard_for(k) for k in KEYS}
        grown = ConsistentHashRouter([shard for shard in range(8) if shard != 5])
        grown.add_shard(5)
        assert {k: grown.shard_for(k) for k in KEYS} == before

    def test_duplicate_add_raises(self):
        router = ConsistentHashRouter(range(2))
        with pytest.raises(ValueError, match="already registered"):
            router.add_shard(1)

    def test_empty_ring_raises(self):
        router = ConsistentHashRouter()
        with pytest.raises(RuntimeError, match="no shards"):
            router.shard_for("anything")

    def test_len_and_contains(self):
        router = ConsistentHashRouter(range(3))
        assert len(router) == 3
        assert 2 in router
        assert 7 not in router
        assert router.shards == [0, 1, 2]
