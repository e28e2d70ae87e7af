"""Tests for repro.quality (admission validators, quarantine, scores)."""

import math
import pickle
from unittest.mock import patch

import pytest

from repro.quality import (
    ADMIT,
    DROP,
    HELD,
    AdmissionController,
    QuarantineStore,
)
from repro.quality import admission, quarantine
from repro.service import Sample
from repro.tsdb import SeriesFrame


def make(name="s.gcpu", ts=0.0, value=1.0, tags=None):
    return Sample(name, ts, value, tags if tags is not None else {"metric": "gcpu"})


def rows(frames):
    """Frames flattened back into samples, in frame then row order."""
    return [
        Sample(frame.name, ts, value, frame.tags)
        for frame in frames
        for ts, value in zip(frame.timestamps.tolist(), frame.values.tolist())
    ]


def admit(ctl, sample, released=None):
    """Admit one point as a one-row frame: ``(row verdict, row to enqueue)``.

    A batch the point released from its reorder buffer is appended, as
    rows, to ``released``.
    """
    ((consumed, held, admitted, overflow),) = ctl.admit(
        [SeriesFrame(sample.name, sample.tags, [sample.timestamp], [sample.value])]
    )
    assert consumed == 1
    if overflow is not None:
        assert held and released is not None, "unexpected release"
        released.extend(rows([overflow]))
    if admitted is not None:
        return ADMIT, rows([admitted])[0]
    return (HELD if held else DROP), None


def controller():
    return AdmissionController(shard_id=0)


def reorder_window(rows):
    """Shrink the reorder buffer to ``rows`` for the ``with`` block."""
    return patch.object(admission, "REORDER_WINDOW", rows)


class TestValidators:
    def test_clean_in_order_samples_admit_unchanged(self):
        ctl = controller()
        for tick in range(5):
            verdict, sample = admit(ctl, make(ts=float(tick), value=0.5))
            assert verdict == ADMIT
            assert sample.value == 0.5
        assert ctl.counters() == {
            "admitted": 5, "quarantined": 0, "repaired": 0,
            "counter_resets": 0, "duplicates": 0, "reordered": 0,
            "buffered": 0,
        }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_quarantined(self, bad):
        ctl = controller()
        verdict, sample = admit(ctl, make(ts=1.0, value=bad))
        assert verdict == DROP and sample is None
        assert ctl.quarantined == 1
        assert ctl.quarantine.count("s.gcpu") == 1

    def test_negative_gcpu_repaired_to_zero(self):
        ctl = controller()
        verdict, sample = admit(ctl, make(ts=1.0, value=-0.25))
        assert verdict == ADMIT
        assert sample.value == 0.0
        assert ctl.repaired == 1 and ctl.quarantined == 0

    def test_negative_on_unknown_metric_passes_through(self):
        ctl = controller()
        verdict, sample = admit(
            ctl, make(ts=1.0, value=-3.0, tags={"metric": "temperature_delta"})
        )
        assert verdict == ADMIT
        assert sample.value == -3.0
        assert ctl.repaired == 0

    def test_counter_reset_rebases_cumulative(self):
        ctl = controller()
        tags = {"metric": "gcpu", "type": "counter"}
        values = [10.0, 20.0, 30.0, 5.0, 9.0]  # restart after 30
        for tick, value in enumerate(values):
            verdict, none = admit(
                ctl, make("c.count", ts=float(tick), value=value, tags=tags)
            )
            # Counters always ride the buffer: rebased on release.
            assert verdict == HELD and none is None
        released = rows(ctl.drain_pending())
        assert [s.value for s in released] == [10.0, 20.0, 30.0, 35.0, 39.0]
        assert ctl.counter_resets == 1

    def test_double_reset_accumulates_offset(self):
        ctl = controller()
        tags = {"type": "counter"}
        for index, value in enumerate([5.0, 2.0, 4.0, 1.0]):
            sample = make("c", ts=float(index), value=value, tags=tags)
            assert admit(ctl, sample)[0] == HELD
        # offsets: +5 at the first drop, +4 (raw) more at the second.
        assert [s.value for s in rows(ctl.drain_pending())] == [5.0, 7.0, 9.0, 10.0]
        assert ctl.counter_resets == 2

    def test_out_of_order_counter_does_not_fake_resets(self):
        """A locally shuffled monotone counter must come out exactly as
        delivered in order — no spurious rollover rebasing."""
        ctl = controller()
        tags = {"type": "counter"}
        order = [2, 0, 1, 4, 3, 5, 7, 6]
        with reorder_window(8):
            for tick in order:
                sample = make("c", ts=float(tick), value=float(10 * tick), tags=tags)
                assert admit(ctl, sample)[0] == HELD
            released = rows(ctl.drain_pending())
        assert [(s.timestamp, s.value) for s in released] == [
            (float(t), float(10 * t)) for t in range(8)
        ]
        assert ctl.counter_resets == 0

    def test_counter_rollover_under_reordering_reconstructs_exactly(self):
        ctl = controller()
        tags = {"type": "counter"}
        clean = [float(7 * (t + 1)) for t in range(10)]
        raw = clean[:5] + [v - clean[4] for v in clean[5:]]  # restart at 5
        order = [0, 2, 1, 3, 4, 6, 5, 7, 9, 8]  # local shuffle
        out = []
        with reorder_window(8):
            for tick in order:
                verdict, sample = admit(
                    ctl, make("c", ts=float(tick), value=raw[tick], tags=tags), out
                )
                if verdict == ADMIT:  # released past its batch: direct admit
                    out.append(sample)
            out.extend(rows(ctl.drain_pending()))
        out.sort(key=lambda s: s.timestamp)
        assert [s.value for s in out] == clean
        assert ctl.counter_resets == 1

    def test_counter_buffer_overflow_releases_rebased_batch(self):
        ctl = controller()
        tags = {"type": "counter"}
        batch = []
        with reorder_window(3):
            for tick in range(4):  # fourth point overflows the window
                admit(ctl, make("c", ts=float(tick), value=float(tick), tags=tags), batch)
        assert [s.value for s in batch] == [0.0, 1.0, 2.0, 3.0]
        assert ctl.buffered == 0

    def test_counter_straggler_past_release_admits_with_offset(self):
        ctl = controller()
        tags = {"type": "counter"}
        with reorder_window(2):
            for tick, value in [(0, 10.0), (1, 20.0), (2, 2.0)]:
                admit(ctl, make("c", ts=float(tick), value=value, tags=tags), [])
            # The third point released the batch: watermark now 2.0, offset 20.0.
            verdict, sample = admit(ctl, make("c", ts=1.5, value=21.0, tags=tags))
        # Too late for the ordered pass: current offset, straight admit.
        assert verdict == ADMIT
        assert sample.value == 41.0


class TestOrdering:
    def test_duplicate_timestamp_lww_admits(self):
        ctl = controller()
        assert admit(ctl, make(ts=1.0, value=1.0))[0] == ADMIT
        verdict, sample = admit(ctl, make(ts=1.0, value=2.0))
        assert verdict == ADMIT and sample.value == 2.0
        assert ctl.duplicates == 1

    def test_stragglers_buffer_and_release_on_overflow(self):
        ctl = controller()
        with reorder_window(3):
            assert admit(ctl, make(ts=10.0))[0] == ADMIT
            for ts in (3.0, 1.0, 2.0):
                verdict, none = admit(ctl, make(ts=ts))  # asserts nothing is released
                assert verdict == HELD and none is None
            assert ctl.buffered == 3
            # Fourth straggler overflows the window: whole batch released.
            batch = []
            assert admit(ctl, make(ts=4.0), batch)[0] == HELD
        assert [s.timestamp for s in batch] == [1.0, 2.0, 3.0, 4.0]
        assert ctl.buffered == 0 and ctl.reordered == 4

    def test_drain_pending_merges_across_series(self):
        ctl = controller()
        admit(ctl, make("a", ts=10.0))
        admit(ctl, make("b", ts=10.0))
        admit(ctl, make("a", ts=2.0))
        admit(ctl, make("b", ts=1.0))
        admit(ctl, make("a", ts=3.0))
        drained = rows(ctl.drain_pending())
        assert [(s.name, s.timestamp) for s in drained] == [
            ("b", 1.0), ("a", 2.0), ("a", 3.0),
        ]
        assert ctl.buffered == 0
        assert ctl.drain_pending() == []

    def test_duplicate_inside_buffer_last_write_wins(self):
        ctl = controller()
        admit(ctl, make(ts=10.0))
        admit(ctl, make(ts=2.0, value=1.0))
        verdict, _ = admit(ctl, make(ts=2.0, value=9.0))
        assert verdict == HELD
        drained = rows(ctl.drain_pending())
        assert [(s.timestamp, s.value) for s in drained] == [(2.0, 9.0)]
        assert ctl.duplicates == 1


class TestFrames:
    """Multi-row frames: the array fast path and where it hands over."""

    def frame(self, stamps, values, name="s.gcpu", tags=None):
        return SeriesFrame(
            name, tags if tags is not None else {"metric": "gcpu"}, stamps, values
        )

    def test_clean_frame_admits_whole_without_copying(self):
        ctl = controller()
        frame = self.frame([1.0, 2.0, 3.0], [0.5, 0.0, 0.7])
        assert ctl.admit([frame]) == [(3, 0, frame, None)]
        assert ctl.counters()["admitted"] == 3
        # The watermark moved: the next frame must start above it.
        ((consumed, held, admitted, _),) = ctl.admit([self.frame([3.0, 4.0], [0.1, 0.2])])
        assert (consumed, held, ctl.duplicates) == (2, 0, 1)
        assert [s.timestamp for s in rows([admitted])] == [3.0, 4.0]

    @pytest.mark.parametrize(
        "stamps, values",
        [
            ([1.0, 2.0, 3.0], [0.5, math.nan, 0.7]),   # not finite
            ([1.0, 2.0, 3.0], [0.5, math.inf, 0.7]),
            ([1.0, 2.0, 3.0], [0.5, -0.1, 0.7]),       # negative gCPU
            ([1.0, 2.0, 2.0], [0.5, 0.6, 0.7]),        # repeated timestamp
            ([1.0, 3.0, 2.0], [0.5, 0.6, 0.7]),        # straggler
        ],
    )
    def test_flagged_frame_matches_row_by_row(self, stamps, values):
        whole, by_row = controller(), controller()
        ((consumed, held, admitted, _),) = whole.admit([self.frame(stamps, values)])
        assert consumed == 3
        kept = []
        for ts, value in zip(stamps, values):
            verdict, sample = admit(by_row, make(ts=ts, value=value))
            if verdict == ADMIT:
                kept.append(sample)
        assert rows([admitted]) == kept
        assert whole.counters() == by_row.counters()
        assert whole.quarantine.snapshot() == by_row.quarantine.snapshot()
        assert rows(whole.drain_pending()) == rows(by_row.drain_pending())

    def test_counter_frames_always_take_the_row_path(self):
        ctl = controller()
        frame = self.frame([0.0, 1.0, 2.0], [10.0, 20.0, 5.0], "c", {"type": "counter"})
        assert ctl.admit([frame]) == [(3, 3, None, None)]
        assert [s.value for s in rows(ctl.drain_pending())] == [10.0, 20.0, 25.0]

    def test_stops_at_the_row_that_overflows_the_reorder_buffer(self):
        ctl = controller()
        admit(ctl, make(ts=10.0))
        frame = self.frame([1.0, 2.0, 3.0, 4.0, 5.0], [0.1] * 5)
        # Row 3 overflows the window: the released frame has to be
        # queued before rows 4 and 5, which are judged in their own entry.
        with reorder_window(2):
            (consumed, held, admitted, released), rest = ctl.admit([frame])
            assert (consumed, held, admitted) == (3, 3, None)
            assert released.timestamps.tolist() == [1.0, 2.0, 3.0]
            assert rest == (2, 2, None, None)
        assert ctl.buffered == 2


class TestOperatorSurface:
    def test_quality_score_tracks_quarantines(self):
        ctl = controller()
        assert ctl.quality_score("s.gcpu") is None
        admit(ctl, make(ts=1.0, value=0.5))
        admit(ctl, make(ts=2.0, value=math.nan))
        admit(ctl, make(ts=3.0, value=0.5))
        assert ctl.quality_score("s.gcpu") == pytest.approx(2 / 3)

    def test_release_series_clears_quarantine(self):
        ctl = controller()
        admit(ctl, make(ts=1.0, value=math.nan))
        admit(ctl, make(ts=2.0, value=math.nan))
        assert ctl.quarantine.release("s.gcpu") == 2
        assert ctl.quarantine.count("s.gcpu") == 0
        assert ctl.quality_score("s.gcpu") == 1.0
        assert ctl.quarantine.release("s.gcpu") == 0

    def test_snapshot_shape(self):
        ctl = controller()
        admit(ctl, make(ts=1.0, value=math.nan))
        snapshot = ctl.snapshot()
        assert snapshot["shard"] == 0
        assert snapshot["counters"]["quarantined"] == 1
        assert snapshot["quarantine"]["total"] == 1
        assert "s.gcpu" in snapshot["scores"]

    def test_metrics_events_only(self):
        """The controller is the one home of ``quality.*``: only events
        move its counts, and ``quarantined`` is cumulative — a release
        drops the attribution, not the count."""
        ctl = controller()
        admit(ctl, make(ts=1.0, value=0.5))   # clean: no event counted
        assert {k: v for k, v in ctl.counters().items() if k != "admitted"} == dict.fromkeys(
            ("quarantined", "repaired", "counter_resets", "duplicates", "reordered",
             "buffered"), 0
        )
        admit(ctl, make(ts=2.0, value=math.nan))
        admit(ctl, make(ts=3.0, value=-1.0))  # repaired, not quarantined
        admit(ctl, make(ts=4.0, value=math.inf))
        assert (ctl.quarantined, ctl.repaired) == (2, 1)
        assert ctl.quarantine.release("s.gcpu") == 2
        assert ctl.quarantined == 2
        assert not hasattr(ctl, "metrics")


class TestPickling:
    def test_round_trip_preserves_state_and_drops_metrics(self):
        """There is no registry handle to drop any more: the pickle is
        the controller's own state, quarantine included."""
        ctl = AdmissionController(shard_id=3)
        admit(ctl, make(ts=5.0))
        admit(ctl, make(ts=1.0))           # held straggler
        admit(ctl, make(ts=6.0, value=math.nan))
        clone = pickle.loads(pickle.dumps(ctl))
        assert "metrics" not in vars(clone)
        assert clone.counters() == ctl.counters()
        assert clone.quarantine.snapshot() == ctl.quarantine.snapshot()
        assert clone.quarantine.count("s.gcpu") == 1
        assert [s.timestamp for s in rows(clone.drain_pending())] == [1.0]
        # Watermark survives: the old straggler is still a straggler.
        assert admit(clone, make(ts=2.0))[0] == HELD


class TestQuarantineStore:
    def test_capacity_evicts_records_not_counts(self, monkeypatch):
        monkeypatch.setattr(quarantine, "QUARANTINE_CAPACITY", 2)
        store = QuarantineStore()
        for index in range(5):
            store.add("s", float(index), math.nan)
        assert store.snapshot()["total"] == 5
        assert store.evicted == 3
        assert store.count("s") == 5
        assert len(store.snapshot()["recent"]) == 2


class TestQualityConfig:
    def test_validation(self):
        """Admission's one setting is a constant, in the range its config
        field was validated against; the controller holds no config."""
        assert admission.REORDER_WINDOW >= 1
        assert not hasattr(controller(), "config")
