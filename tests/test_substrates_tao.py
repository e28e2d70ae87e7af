"""Tests for repro.substrates.tao."""

import pytest

from repro.substrates.tao import TaoMetricsEmitter, TaoStore
from repro.tsdb import TimeSeriesDatabase


class TestTaoObjects:
    def test_add_and_get(self):
        store = TaoStore()
        user = store.obj_add("user", {"name": "alice"})
        fetched = store.obj_get(user.object_id)
        assert fetched is user
        assert fetched.data["name"] == "alice"

    def test_get_missing(self):
        assert TaoStore().obj_get(999) is None

    def test_ids_unique(self):
        store = TaoStore()
        a = store.obj_add("user")
        b = store.obj_add("user")
        assert a.object_id != b.object_id


class TestTaoAssociations:
    def _store(self):
        store = TaoStore()
        self.alice = store.obj_add("user")
        self.bob = store.obj_add("user")
        self.carol = store.obj_add("user")
        return store

    def test_add_and_get(self):
        store = self._store()
        store.assoc_add(self.alice.object_id, "friend", self.bob.object_id, time=1.0)
        (assoc,) = store.assoc_range(self.alice.object_id, "friend")
        assert assoc.id2 == self.bob.object_id

    def test_range_newest_first(self):
        store = self._store()
        store.assoc_add(self.alice.object_id, "friend", self.bob.object_id, time=1.0)
        store.assoc_add(self.alice.object_id, "friend", self.carol.object_id, time=5.0)
        page = store.assoc_range(self.alice.object_id, "friend")
        assert [a.id2 for a in page] == [self.carol.object_id, self.bob.object_id]

    def test_range_pagination(self):
        store = self._store()
        for i, t in enumerate([1.0, 2.0, 3.0]):
            target = store.obj_add("post")
            store.assoc_add(self.alice.object_id, "likes", target.object_id, time=t)
        assert len(store.assoc_range(self.alice.object_id, "likes", offset=1, limit=1)) == 1

    def test_re_add_refreshes(self):
        store = self._store()
        store.assoc_add(self.alice.object_id, "friend", self.bob.object_id, time=1.0)
        store.assoc_add(self.alice.object_id, "friend", self.bob.object_id, time=9.0)
        assert store.assoc_count(self.alice.object_id, "friend") == 1
        (assoc,) = store.assoc_range(self.alice.object_id, "friend")
        assert assoc.time == 9.0

    def test_count(self):
        store = self._store()
        assert store.assoc_count(self.alice.object_id, "friend") == 0
        store.assoc_add(self.alice.object_id, "friend", self.bob.object_id, time=1.0)
        assert store.assoc_count(self.alice.object_id, "friend") == 1


class TestTaoAccounting:
    def test_operations_counted_per_type(self):
        store = TaoStore()
        user = store.obj_add("user")
        post = store.obj_add("post")
        store.assoc_add(user.object_id, "likes", post.object_id, time=1.0)
        store.assoc_range(user.object_id, "likes")
        assert store.operation_counts[("obj_add", "user")] == 1
        assert store.operation_counts[("assoc_range", "likes")] == 1

    def test_regress_data_type_scales_cost(self):
        store = TaoStore()
        user = store.obj_add("user")
        post = store.obj_add("post")
        store.assoc_add(user.object_id, "likes", post.object_id, time=1.0)
        baseline = store.reset_accounting()[("assoc_add", "likes")]
        store.regress_data_type("likes", 1.5)
        store.assoc_add(user.object_id, "likes", post.object_id, time=2.0)
        regressed = store.reset_accounting()[("assoc_add", "likes")]
        assert regressed == pytest.approx(1.5 * baseline)

    def test_regress_invalid_factor(self):
        with pytest.raises(ValueError):
            TaoStore().regress_data_type("likes", 0.0)

    def test_reset_clears(self):
        store = TaoStore()
        store.obj_add("user")
        store.reset_accounting()
        assert store.operation_counts == {}
        assert store.operation_cost == {}


class TestTaoMetricsEmitter:
    def test_emits_per_type_series(self):
        store = TaoStore()
        db = TimeSeriesDatabase()
        emitter = TaoMetricsEmitter(db)
        user = store.obj_add("user")
        post = store.obj_add("post")
        store.assoc_add(user.object_id, "likes", post.object_id, time=1.0)
        written = emitter.ingest(60.0, store)
        assert written >= 5
        assert db.get("tao.likes.io_cost") is not None
        assert db.get("tao.likes.io_count").values[0] == 1.0
        assert db.get("tao.query_throughput") is not None

    def test_per_data_type_regression_detectable(self):
        """A regressed data type's io_cost series trips the pipeline."""
        import numpy as np

        from repro import FBDetect
        from repro.config import DetectionConfig
        from repro.tsdb import WindowSpec

        rng = np.random.default_rng(1)
        store = TaoStore()
        db = TimeSeriesDatabase()
        emitter = TaoMetricsEmitter(db)
        user = store.obj_add("user")
        posts = [store.obj_add("post") for _ in range(5)]
        store.reset_accounting()

        for tick in range(900):
            if tick == 700:
                store.regress_data_type("likes", 1.3)
            for _ in range(int(20 + rng.integers(0, 3))):
                store.assoc_add(
                    user.object_id, "likes",
                    posts[int(rng.integers(0, 5))].object_id, time=float(tick),
                )
            emitter.ingest(tick * 60.0, store)

        config = DetectionConfig(
            name="tao",
            threshold=0.05,
            relative_threshold=True,
            rerun_interval=3600.0,
            windows=WindowSpec(36_000.0, 12_000.0, 6_000.0),
            long_term=False,
        )
        detector = FBDetect(config, series_filter={"metric": "io_cost"})
        result = detector.run(db, now=900 * 60.0)
        assert len(result.reported) == 1
        assert result.reported[0].context.metric_id == "tao.likes.io_cost"
