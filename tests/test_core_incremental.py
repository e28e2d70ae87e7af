"""Tests for repro.core.incremental (the per-series scan cache)."""

import pickle

import numpy as np
import pytest

from repro.core import IncrementalScanCache
from repro.tsdb.series import TimeSeries


def make_series(n=300, mean=0.001, std=0.00002, seed=0, name="svc.sub0.gcpu"):
    rng = np.random.default_rng(seed)
    series = TimeSeries(name)
    series.extend((tick * 60.0, float(value))
                  for tick, value in enumerate(rng.normal(mean, std, n)))
    return series


def anchor(cache, series, now, had_candidate=False):
    cache.record_full_scan(series, now, series.values[-200:], had_candidate)


class TestIncrementalScanCache:
    def test_first_decision_is_a_miss(self):
        cache = IncrementalScanCache(max_staleness=12_000.0)
        series = make_series()
        assert cache.should_scan(series, now=18_000.0)
        assert cache.counters() == {
            "hits": 0, "misses": 1, "invalidations": 0, "anchors": 0,
        }

    def test_quiet_series_hits_until_staleness(self):
        cache = IncrementalScanCache(max_staleness=12_000.0)
        series = make_series()
        now = series.timestamp_at(-1)
        anchor(cache, series, now)
        # No new data, within staleness: the previous verdict stands.
        assert not cache.should_scan(series, now + 6_000.0)
        # A full analysis span later the anchor is too old.
        assert cache.should_scan(series, now + 12_000.0)
        assert cache.hits == 1 and cache.misses == 1

    def test_quiet_appends_stay_hits(self):
        cache = IncrementalScanCache(max_staleness=12_000.0)
        series = make_series(seed=1)
        now = series.timestamp_at(-1)
        anchor(cache, series, now)
        rng = np.random.default_rng(2)
        for tick in range(20):
            series.append(now + (tick + 1) * 60.0,
                          float(rng.normal(0.001, 0.00002)))
        assert not cache.should_scan(series, now + 1_200.0)
        assert (cache.hits, cache.misses) == (1, 0)

    def test_shifted_appends_force_full_scan(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=3)
        now = series.timestamp_at(-1)
        anchor(cache, series, now)
        for tick in range(30):  # 5-sigma shift: the screen must fire
            series.append(now + (tick + 1) * 60.0, 0.0011)
        assert cache.should_scan(series, now + 1_800.0)

    def test_candidate_series_always_rescanned(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=4)
        now = series.timestamp_at(-1)
        anchor(cache, series, now, had_candidate=True)
        assert cache.should_scan(series, now + 60.0)

    def test_backfill_invalidates_anchor(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=5)
        now = series.timestamp_at(-1)
        anchor(cache, series, now)
        series.insert(30.0, 0.5)  # out-of-order backfill rewrites history
        assert cache.should_scan(series, now + 60.0)
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_shrunk_series_invalidates_anchor(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=6)
        anchor(cache, series, series.timestamp_at(-1))
        shorter = make_series(n=100, seed=6, name=series.name)
        assert cache.should_scan(shorter, 1e6)
        assert cache.invalidations == 1

    def test_clear_counts_invalidations(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        for index in range(3):
            series = make_series(seed=index, name=f"svc.sub{index}.gcpu")
            anchor(cache, series, series.timestamp_at(-1))
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 3

    def test_rejects_nonpositive_staleness(self):
        with pytest.raises(ValueError, match="max_staleness"):
            IncrementalScanCache(max_staleness=0.0)

    def test_pickle_round_trip_preserves_anchors(self):
        cache = IncrementalScanCache(max_staleness=12_000.0)
        series = make_series(seed=8)
        now = series.timestamp_at(-1)
        anchor(cache, series, now)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 1
        assert not clone.should_scan(series, now + 60.0)
