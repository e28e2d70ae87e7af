"""Tests for repro.fleet.dirty (dirty-data stream transforms)."""

import math
from unittest.mock import patch

import pytest

from repro.fleet import dirty as dirty_module
from repro.fleet import (
    DirtyDataSpec,
    dirty_stream,
    drop_gaps,
    inject_nan_bursts,
    reorder_within_blocks,
    rollover_counter,
)
from repro.service import Sample


def stream(n_ticks=50, series=("a", "b"), interval=60.0):
    samples = []
    for tick in range(n_ticks):
        for name in series:
            samples.append(
                Sample(name, tick * interval, float(tick), {"metric": "gcpu"})
            )
    return samples


class TestReorder:
    def test_same_points_locally_permuted(self):
        clean = stream()
        dirty = reorder_within_blocks(clean, block=8, seed=1)
        assert dirty != clean  # the shuffle actually moved something
        assert sorted(dirty, key=lambda s: (s.name, s.timestamp)) == sorted(
            clean, key=lambda s: (s.name, s.timestamp)
        )
        # No point moved across its block boundary.
        for index, sample in enumerate(dirty):
            original = clean.index(sample)
            assert original // 8 == index // 8

    def test_deterministic_under_seed(self):
        clean = stream()
        assert reorder_within_blocks(clean, seed=3) == reorder_within_blocks(
            clean, seed=3
        )
        assert reorder_within_blocks(clean, seed=3) != reorder_within_blocks(
            clean, seed=4
        )

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            reorder_within_blocks([], block=0)


class TestNanBursts:
    def test_adds_extras_only(self):
        clean = stream()
        dirty = inject_nan_bursts(clean, ["a"], bursts=2, burst_len=3, seed=0)
        extras = [s for s in dirty if s.value != s.value]
        assert extras and all(s.name == "a" for s in extras)
        # Every clean point survives untouched, in order.
        assert [s for s in dirty if s.value == s.value] == clean

    def test_unknown_series_is_noop(self):
        clean = stream()
        assert inject_nan_bursts(clean, ["nope"], seed=0) == clean


class TestGaps:
    def test_drops_only_target_series(self):
        clean = stream(n_ticks=200)
        dirty = drop_gaps(clean, ["b"], fraction=0.2, seed=0)
        assert [s for s in dirty if s.name == "a"] == [
            s for s in clean if s.name == "a"
        ]
        remaining = [s for s in dirty if s.name == "b"]
        assert 120 < len(remaining) < 195  # ~20% gone

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            drop_gaps([], [], fraction=1.5)


class TestRollover:
    def test_tail_rebased_to_restart(self):
        counter = [
            Sample("c", float(t), float(10 * (t + 1)), {"type": "counter"})
            for t in range(6)
        ]
        with patch.object(dirty_module, "ROLLOVER_AT", 3):
            dirty = rollover_counter(counter, "c")
        values = [s.value for s in dirty]
        # Pre-restart untouched; tail re-based to the last value (30).
        assert values == [10.0, 20.0, 30.0, 10.0, 20.0, 30.0]

    def test_admission_reconstructs_exact_cumulative(self):
        from repro.quality import AdmissionController
        from repro.service import frames_of

        counter = [
            Sample("c", float(t), float(7 * (t + 1)), {"type": "counter"})
            for t in range(10)
        ]
        dirty = rollover_counter(counter, "c")
        ctl = AdmissionController(0)
        (frame,) = frames_of(dirty)
        # Counters ride the buffer: every row is held, none admitted.
        assert ctl.admit([frame]) == [(len(dirty), len(dirty), None, None)]
        (released,) = ctl.drain_pending()
        assert released.values.tolist() == [s.value for s in counter]
        assert ctl.counter_resets == 1

    def test_too_short_series_is_noop(self):
        single = [Sample("c", 0.0, 1.0, {"type": "counter"})]
        assert rollover_counter(single, "c") == single

    def test_bad_index_rejected(self):
        counter = [Sample("c", float(t), 1.0, {}) for t in range(4)]
        with patch.object(dirty_module, "ROLLOVER_AT", 0), pytest.raises(ValueError):
            rollover_counter(counter, "c")


class TestDirtyStream:
    def test_spec_composes_all_damage(self):
        clean = stream(n_ticks=100, series=("a", "b", "c"))
        counter = [
            Sample("cnt", float(t) * 60.0, float(t), {"type": "counter"})
            for t in range(100)
        ]
        spec = DirtyDataSpec(
            seed=2,
            reorder_block=12,
            nan_series=("a",),
            gap_series=("b",),
            gap_fraction=0.1,
            rollover_series=("cnt",),
        )
        dirty = dirty_stream(clean + counter, spec)
        nans = [s for s in dirty if s.value != s.value]
        assert nans and all(s.name == "a" for s in nans)
        assert len([s for s in dirty if s.name == "b"]) < 100
        cnt = sorted(
            (s for s in dirty if s.name == "cnt"), key=lambda s: s.timestamp
        )
        assert min(s.value for s in cnt[50:]) < cnt[49].value  # restarted

    def test_default_spec_reorders_only(self):
        clean = stream()
        dirty = dirty_stream(clean, DirtyDataSpec(seed=0))
        assert len(dirty) == len(clean)
        assert not any(math.isnan(s.value) for s in dirty)
