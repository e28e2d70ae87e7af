"""Tests for repro.tsdb (series, database, windows)."""

import pickle

import numpy as np
import pytest

from repro.service.shard import WriteLog
from repro.tsdb import FrameColumns, SeriesFrame, TimeSeries, TimeSeriesDatabase, WindowSpec


class TestTimeSeries:
    def test_append_and_len(self):
        series = TimeSeries("s")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]

    def test_out_of_order_append_raises(self):
        series = TimeSeries("s")
        series.append(10.0, 1.0)
        with pytest.raises(ValueError):
            series.append(5.0, 2.0)

    def test_equal_timestamp_last_write_wins(self):
        series = TimeSeries("s")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 1
        assert list(series) == [(1.0, 2.0)]

    def test_unknown_duplicate_policy_raises(self):
        # Repeats resolve last-write-wins: there is no policy to choose.
        with pytest.raises(TypeError):
            TimeSeries("s", duplicate_policy="first_write_wins")

    def test_insert_keeps_order(self):
        series = TimeSeries("s")
        series.extend([(0.0, 0.0), (2.0, 2.0)])
        series.ingest_many([(1.0, 1.0)])
        assert list(series.timestamps) == [0.0, 1.0, 2.0]

    def test_insert_duplicate_overwrites_in_place(self):
        series = TimeSeries("s")
        series.extend([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        series.ingest_many([(1.0, 9.0)])
        assert list(series.timestamps) == [0.0, 1.0, 2.0]
        assert list(series.values) == [0.0, 9.0, 2.0]

    def test_ingest_many_merges_stragglers_sorted(self):
        series = TimeSeries("s")
        series.extend([(0.0, 0.0), (4.0, 4.0), (8.0, 8.0)])
        written = series.ingest_many(
            [(10.0, 10.0), (2.0, 2.0), (6.0, 6.0), (1.0, 1.0), (12.0, 12.0)]
        )
        assert written == 5
        assert list(series.timestamps) == [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        assert list(series.values) == list(series.timestamps)

    def test_ingest_many_duplicate_stragglers_last_write_wins(self):
        series = TimeSeries("s")
        series.extend([(0.0, 0.0), (4.0, 4.0)])
        series.ingest_many([(4.0, 40.0), (2.0, 2.0), (2.0, 20.0), (0.0, -1.0)])
        assert list(series.timestamps) == [0.0, 2.0, 4.0]
        assert list(series.values) == [-1.0, 20.0, 40.0]

    def test_between_half_open(self):
        series = TimeSeries("s")
        series.extend([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        sub = series.between(1.0, 3.0)
        assert list(sub.values) == [1.0, 2.0]

    def test_values_between(self):
        series = TimeSeries("s")
        series.extend([(float(i), float(i)) for i in range(10)])
        assert list(series.values_between(2.0, 5.0)) == [2.0, 3.0, 4.0]

    def test_start_end(self):
        series = TimeSeries("s")
        assert series.start is None and series.end is None
        series.extend([(1.0, 0.0), (5.0, 0.0)])
        assert series.start == 1.0 and series.end == 5.0

    def test_drop_before(self):
        series = TimeSeries("s")
        series.extend([(float(i), float(i)) for i in range(10)])
        dropped = series.drop_before(4.0)
        assert dropped == 4
        assert series.start == 4.0

    def test_a_trim_keeps_the_capacity_the_appends_fill(self):
        """A retention trim copies the live points once, into a buffer of
        the capacity the column had: the appends up to the next trim fill
        it in place, and no column outgrows its pre-trim buffer."""
        series = TimeSeries("s")
        series.extend([(60.0 * i, float(i)) for i in range(2_700)])
        columns = (series._timestamps, series._values)
        capacity = columns[0].capacity
        assert columns[1].capacity == capacity >= 2_700
        for cutoff in (54_000.0, 108_000.0):
            series.drop_before(cutoff)
            buffers = [column._buffer for column in columns]
            while len(series) < capacity:  # up to the next trim
                series.append(series.end + 60.0, 0.0)
                assert all(c._buffer is b for c, b in zip(columns, buffers))
            assert [column.capacity for column in columns] == [capacity, capacity]

class TestTimeSeriesDatabase:
    def test_write_autocreates(self):
        db = TimeSeriesDatabase()
        db.write("a.b", 0.0, 1.0, tags={"metric": "gcpu"})
        assert "a.b" in db
        assert len(db) == 1

    def test_create_merges_tags(self):
        db = TimeSeriesDatabase()
        db.create("s", {"a": "1"})
        db.create("s", {"b": "2"})
        assert db.get("s").tags == {"a": "1", "b": "2"}

    def test_query_by_tags(self):
        db = TimeSeriesDatabase()
        db.write("x", 0.0, 1.0, tags={"service": "svc", "metric": "gcpu"})
        db.write("y", 0.0, 1.0, tags={"service": "svc", "metric": "cpu"})
        db.write("z", 0.0, 1.0, tags={"service": "other", "metric": "gcpu"})
        assert [s.name for s in db.query(service="svc", metric="gcpu")] == ["x"]
        assert len(db.query(service="svc")) == 2

    def test_get_missing_none(self):
        assert TimeSeriesDatabase().get("nope") is None

    def test_names_sorted(self):
        db = TimeSeriesDatabase()
        db.create("b")
        db.create("a")
        assert db.names() == ["a", "b"]

    def test_retention(self):
        db = TimeSeriesDatabase()
        for i in range(10):
            db.write("s", float(i), 0.0)
        assert db.apply_retention(5.0) == 5
        assert db.get("s").start == 5.0


class TestWriteBatch:
    """One array pass judges a batch's frames; whether a frame starts
    above its series' last stored timestamp is judged live, frame by
    frame, so a series repeated in the batch sees its earlier frames."""

    BATCH = [
        SeriesFrame("s", {"metric": "gcpu"}, [0.0, 60.0, 120.0], [1.0, 2.0, 3.0]),
        SeriesFrame("t", {}, [0.0, 60.0], [7.0, 8.0]),
        SeriesFrame("s", {}, [180.0, 240.0], [4.0, 5.0]),     # appends
        SeriesFrame("s", {}, [60.0, 90.0], [9.5, 9.0]),       # a re-sent point and a straggler
        SeriesFrame("t", {}, [], []),
        SeriesFrame("s", {"host": "a"}, [300.0, 360.0], [6.0, 7.0]),  # appends again
        SeriesFrame("t", {}, [120.0, 120.0], [1.0, 2.0]),     # a repeat inside the frame
    ]

    @staticmethod
    def columns(database):
        return [
            (series.name, series.tags, series._timestamps.view().tobytes(),
             series._values.view().tobytes())
            for series in database
        ]

    def test_one_batch_equals_one_ingest_columns_call_per_frame(self):
        batched = TimeSeriesDatabase()
        assert batched.write_batch(FrameColumns.of(self.BATCH)) == 13
        sequential = TimeSeriesDatabase()
        for frame in self.BATCH:
            if len(frame):
                sequential.create(frame.name, frame.tags).ingest_columns(
                    frame.timestamps, frame.values
                )
        assert self.columns(batched) == self.columns(sequential)
        stored = batched.get("s")
        assert stored.timestamps.tolist() == [0.0, 60.0, 90.0, 120.0, 180.0, 240.0, 300.0, 360.0]
        assert stored.values.tolist() == [1.0, 9.5, 9.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert batched.get("t").values.tolist() == [7.0, 8.0, 2.0]

    def test_a_replayed_delta_equals_the_live_database(self):
        live = TimeSeriesDatabase()
        live.write_batch(FrameColumns.of(self.BATCH[:1]))
        replica = pickle.loads(pickle.dumps(live))
        log = WriteLog(live)
        batch = FrameColumns.of(self.BATCH[1:])
        assert live.write_batch(batch) == len(batch) == 10
        assert log.wrote(batch)
        pickle.loads(pickle.dumps(log.cut())).replay(replica)
        assert self.columns(replica) == self.columns(live)


class TestWindowSpec:
    def test_invalid_durations_raise(self):
        with pytest.raises(ValueError):
            WindowSpec(historic=0, analysis=1)
        with pytest.raises(ValueError):
            WindowSpec(historic=1, analysis=1, extended=-1)

    def test_total(self):
        assert WindowSpec(10, 5, 2).total == 17

    def test_view_slices_correctly(self):
        series = TimeSeries("s")
        for i in range(100):
            series.append(float(i), float(i))
        spec = WindowSpec(historic=50, analysis=30, extended=20)
        view = spec.view(series, now=100.0)
        assert view.historic.size == 50
        assert view.analysis.size == 30
        assert view.extended.size == 20
        assert view.historic[0] == 0.0
        assert view.analysis[0] == 50.0
        assert view.extended[-1] == 99.0

    def test_view_without_extended(self):
        series = TimeSeries("s")
        for i in range(100):
            series.append(float(i), float(i))
        spec = WindowSpec(historic=60, analysis=40)
        view = spec.view(series, now=100.0)
        assert view.extended.size == 0
        assert view.analysis_and_extended.size == 40

    def test_full_concatenation(self):
        series = TimeSeries("s")
        for i in range(10):
            series.append(float(i), float(i))
        view = WindowSpec(5, 3, 2).view(series, now=10.0)
        assert list(view.full) == [float(i) for i in range(10)]

    def test_has_minimum_data(self):
        series = TimeSeries("s")
        for i in range(20):
            series.append(float(i), 0.0)
        view = WindowSpec(10, 5, 5).view(series, now=20.0)
        assert view.has_minimum_data(min_historic=10, min_analysis=5)
        assert not view.has_minimum_data(min_historic=11, min_analysis=5)

    def test_view_beyond_data_is_empty(self):
        series = TimeSeries("s")
        series.append(0.0, 1.0)
        view = WindowSpec(10, 5, 5).view(series, now=1000.0)
        assert view.full.size == 0
