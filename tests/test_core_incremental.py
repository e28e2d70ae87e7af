"""Tests for repro.core.incremental (the per-series scan cache)."""

import math
import pickle
from unittest import mock

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core import IncrementalScanCache
from repro.core.incremental import SCREEN_DRIFT, SCREEN_THRESHOLD
from repro.runtime import CollectingSink
from repro.service import Sample, StreamingDetectionService
from repro.tsdb import TimeSeriesDatabase, WindowSpec
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
        now = series.timestamps[-1]
        anchor(cache, series, now)
        # Only quiet data since, within staleness: the verdict stands.
        assert not cache.should_scan(series, now + 6_000.0)
        # A full analysis span later the anchor is too old.
        assert cache.should_scan(series, now + 12_000.0)
        assert cache.hits == 1 and cache.misses == 1

    def test_quiet_appends_stay_hits(self):
        cache = IncrementalScanCache(max_staleness=12_000.0)
        series = make_series(seed=1)
        now = series.timestamps[-1]
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
        now = series.timestamps[-1]
        anchor(cache, series, now)
        for tick in range(30):  # 5-sigma shift: the screen must fire
            series.append(now + (tick + 1) * 60.0, 0.0011)
        assert cache.should_scan(series, now + 1_800.0)

    def test_candidate_series_always_rescanned(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=4)
        now = series.timestamps[-1]
        anchor(cache, series, now, had_candidate=True)
        assert cache.should_scan(series, now + 60.0)

    def test_backfill_invalidates_anchor(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=5)
        now = series.timestamps[-1]
        anchor(cache, series, now)
        # Out-of-order backfill rewrites history.
        series.ingest_columns(np.array([30.0]), np.array([0.5]))
        assert cache.should_scan(series, now + 60.0)
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_shrunk_series_invalidates_anchor(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=6)
        anchor(cache, series, series.timestamps[-1])
        shorter = make_series(n=100, seed=6, name=series.name)
        assert cache.should_scan(shorter, 1e6)
        assert cache.invalidations == 1

    def test_retention_before_the_anchor_re_bases_it(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=9)
        now = series.timestamps[-1] + 60.0
        anchor(cache, series, now)
        series.append(now, 0.001)
        # Retention drops the oldest 100 samples: the anchored end moves
        # from position 299 to 199, and the anchor follows it.
        assert series.drop_before(100 * 60.0) == 100
        assert not cache.should_scan(series, now + 60.0)
        assert cache.invalidations == 0
        assert cache.screen_state(series.name)["anchor_len"] == 201

    def test_retention_past_the_anchored_end_invalidates(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=10)
        now = series.timestamps[-1] + 60.0
        anchor(cache, series, now)
        series.append(now, 0.001)
        series.drop_before(now)  # the anchored end is gone
        assert cache.should_scan(series, now + 60.0)
        assert cache.invalidations == 1

    def test_rejects_nonpositive_staleness(self):
        with pytest.raises(ValueError, match="max_staleness"):
            IncrementalScanCache(max_staleness=0.0)

    def test_pickle_round_trip_preserves_anchors(self):
        cache = IncrementalScanCache(max_staleness=12_000.0)
        series = make_series(seed=8)
        now = series.timestamps[-1]
        anchor(cache, series, now)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 1
        assert not clone.should_scan(series, now + 60.0)


class TestOneCut:
    """The screen reads what a window ending at ``now`` reads: the
    samples stamped before ``now``, never one that landed ahead of it."""

    def test_anchor_sits_at_the_position_of_now(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series()  # ticks 0 .. 299, 60 s apart
        anchor(cache, series, 200 * 60.0)
        state = cache.screen_state(series.name)
        assert (state["anchor_len"], state["anchor_end"]) == (200, 199 * 60.0)
        # A sample stamped exactly at ``now`` is outside the window too.
        anchor(cache, series, 199 * 60.0)
        assert cache.screen_state(series.name)["anchor_len"] == 199

    def test_samples_ahead_of_now_are_not_folded(self):
        cache = IncrementalScanCache(max_staleness=1e9)
        series = make_series(seed=3)
        now = series.timestamps[-1] + 60.0
        anchor(cache, series, now)
        for tick in range(30):  # a 5-sigma shift, stamped from ``now`` on
            series.append(now + tick * 60.0, 0.0011)
        assert not cache.should_scan(series, now)
        state = cache.screen_state(series.name)
        assert (state["anchor_len"], state["pos"], state["neg"]) == (len(series) - 30, 0.0, 0.0)
        assert cache.should_scan(series, now + 1_800.0)


class TestScreenContract:
    """What the screen promises, in reference standard deviations of
    the anchored analysis window."""

    MEAN, SIGMA = 1.0, 0.01

    def anchored(self, max_staleness):
        """A cache anchored at ``now`` on a window whose population
        moments are exactly (MEAN, SIGMA), and the series it watches."""
        cache = IncrementalScanCache(max_staleness=max_staleness)
        series = TimeSeries("svc.contract.gcpu")
        window = [self.MEAN + self.SIGMA * (-1) ** tick for tick in range(100)]
        series.extend((tick * 60.0, value) for tick, value in enumerate(window))
        now = series.timestamps[-1] + 60.0
        cache.record_full_scan(series, now, window, had_candidate=False)
        return cache, series, now

    def decisions(self, cache, series, now, step, points):
        """Append ``points`` samples of a noiseless ``step``-sigma shift
        one at a time, screening after each; the decisions in order."""
        out = []
        for tick in range(points):
            series.append(now + tick * 60.0, self.MEAN + step * self.SIGMA)
            out.append(cache.should_scan(series, now + (tick + 1) * 60.0))
        return out

    def test_a_two_sigma_step_fires_after_the_contract_count(self):
        cache, series, now = self.anchored(max_staleness=1e9)
        expected = math.ceil(SCREEN_THRESHOLD / (2.0 - SCREEN_DRIFT))
        assert self.decisions(cache, series, now, 2.0, expected) == (
            [False] * (expected - 1) + [True]
        )
        assert cache.screen_state(series.name)["fired"]

    def test_a_step_below_the_drift_is_scanned_only_when_stale(self):
        max_staleness = 12_000.0
        cache, series, now = self.anchored(max_staleness)
        points = 2 * int(max_staleness / 60.0)
        decided = self.decisions(cache, series, now, 0.9 * SCREEN_DRIFT, points)
        assert not cache.screen_state(series.name)["fired"]
        # Screened at now + (i + 1) * 60 s: the first forced scan is the
        # one at which the anchor is max_staleness old, and none before.
        stale_from = int(max_staleness / 60.0) - 1
        assert decided == [False] * stale_from + [True] * (points - stale_from)


class TestRetentionKeepsAnchors:
    """Retention keeps what a scan reads — the monitor's span, cut once a
    span has passed — so it retires only samples before every anchored
    end: the screen decides as it would with nothing retired."""

    N_SERIES = 12
    TICKS = 2_400  # 40 h at 60 s, the step at tick 1,800

    @staticmethod
    def _config():
        return DetectionConfig(
            name="quiet",
            threshold=0.00005,
            rerun_interval=6_000.0,
            windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
            long_term=False,
        )

    def _run(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0.001, 0.00002, (self.N_SERIES, self.TICKS))
        values[0, 1_800:] += 0.0003
        sink = CollectingSink()
        service = StreamingDetectionService(n_shards=1, sinks=[sink])
        service.register_monitor("gcpu", self._config(), series_filter={"metric": "gcpu"})
        try:
            for begin in range(0, self.TICKS, 100):
                service.ingest_many([
                    Sample(f"svc.sub{row}.gcpu", tick * 60.0, float(values[row, tick]),
                           {"metric": "gcpu"})
                    for tick in range(begin, begin + 100)
                    for row in range(self.N_SERIES)
                ])
                service.advance_to((begin + 100) * 60.0)
            (shard,) = service._shards.values()
            (registration,) = shard.scheduler._monitors.values()
            cache = registration.state.cache
            reports = sorted((r.metric_id, r.change_time) for r in sink.reports)
            return cache.counters(), reports, len(service.shard_database(0).get("svc.sub1.gcpu"))
        finally:
            service.close()

    def test_same_hits_and_reports_as_without_retention(self):
        with mock.patch.object(TimeSeriesDatabase, "apply_retention", lambda db, cutoff: 0):
            kept, kept_reports, kept_points = self._run()
        trimmed, trimmed_reports, trimmed_points = self._run()
        # The 54,000 s span is cut at 54,000 s (cutoff 0), then at 108,000 s.
        assert (kept_points, trimmed_points) == (self.TICKS, self.TICKS - 900)
        assert kept_reports and trimmed_reports == kept_reports
        assert trimmed["invalidations"] == kept["invalidations"] == 0
        assert trimmed["hits"] == kept["hits"] > 0
        assert trimmed == kept
