"""Tests for the CSV / JSON-lines telemetry importers."""

import io
import json

from repro.connectors import CsvImporter, ImportStats, JsonLinesImporter
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import views


class _Collecting:
    """Minimal ingest target: accepts everything, remembers the samples."""

    def __init__(self):
        self.samples = []

    def ingest_frames(self, frames):
        self.samples.extend(
            Sample(frame.name, timestamp, value, frame.tags)
            for frame in frames
            for timestamp, value in zip(frame.timestamps.tolist(), frame.values.tolist())
        )
        return sum(len(frame) for frame in frames)


class TestCsvImporter:
    def test_long_form_with_tag_columns(self):
        stream = io.StringIO(
            "name,timestamp,value,host\n"
            "svc.a.gcpu,60,0.001,web1\n"
            "svc.b.gcpu,60,0.002,web2\n"
        )
        service = _Collecting()
        stats = CsvImporter().import_into(service, stream)
        assert stats.offered == stats.accepted == 2
        assert stats.series == 2
        assert stats.bad_rows == 0
        # Tag columns are identity (like Prometheus labels): rows with
        # different tag values fan out into distinct internal series.
        by_name = {s.name: s for s in service.samples}
        assert by_name["svc.a.gcpu.host_web1"].tags["host"] == "web1"
        assert by_name["svc.a.gcpu.host_web1"].tags["source"] == "csv"

    def test_narrow_form_uses_series_name(self):
        stream = io.StringIO("timestamp,value\n0,1.0\n60,1.1\n")
        service = _Collecting()
        stats = CsvImporter().import_into(service, stream)
        assert stats.offered == 2
        assert all(s.name == "imported.series" for s in service.samples)

    def test_headerless_narrow_file_keeps_first_row(self):
        stream = io.StringIO("0,1.0\n60,1.1\n")
        service = _Collecting()
        stats = CsvImporter().import_into(service, stream)
        assert stats.offered == 2
        assert stats.first_timestamp == 0.0

    def test_malformed_rows_skipped_not_fatal(self):
        stream = io.StringIO(
            "name,timestamp,value\n"
            "svc.a,60,0.001\n"
            "svc.b,not-a-time,0.002\n"
            "svc.c,120\n"
            "\n"
            "svc.d,180,0.004\n"
        )
        service = _Collecting()
        stats = CsvImporter().import_into(service, stream)
        assert stats.offered == 2
        assert stats.bad_rows == 2

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n0,1.0\n60,2.0\n")
        stats = CsvImporter().import_into(_Collecting(), str(path))
        assert stats.offered == 2
        assert stats.last_timestamp == 60.0


class TestJsonLinesImporter:
    def test_objects_with_tags(self):
        stream = io.StringIO(
            json.dumps({"name": "svc.a", "timestamp": 60, "value": 1.0,
                        "tags": {"host": "web1"}}) + "\n"
            + json.dumps({"name": "svc.a", "timestamp": 120, "value": 1.1,
                          "labels": {"host": "web1"}}) + "\n"
        )
        service = _Collecting()
        stats = JsonLinesImporter().import_into(service, stream)
        assert stats.offered == 2
        assert service.samples[0].tags["host"] == "web1"
        assert service.samples[0].tags["source"] == "jsonl"

    def test_bad_lines_skipped(self):
        stream = io.StringIO(
            '{"name": "svc.a", "timestamp": 60, "value": 1.0}\n'
            "not json\n"
            '{"name": "svc.b", "timestamp": "sixty", "value": 1.0}\n'
            '{"name": "svc.c", "value": 1.0}\n'
        )
        stats = JsonLinesImporter().import_into(_Collecting(), stream)
        assert stats.offered == 1
        assert stats.bad_rows == 3


class TestImportThroughAdmission:
    def test_imported_counter_gets_rebased(self):
        """A ``*_total`` series rides the admission counter-rebasing."""
        service = StreamingDetectionService(
            n_shards=1, queue_capacity=1024,
            backpressure=BackpressurePolicy.BLOCK, batch_size=8,
        )
        lines = []
        value, ts = 0.0, 0.0
        for i in range(24):
            value += 5.0
            if i == 12:
                value = 2.0  # process restart: the counter resets
            lines.append(json.dumps(
                {"name": "http_requests_total", "timestamp": ts, "value": value}
            ))
            ts += 60.0
        stats = JsonLinesImporter().import_into(
            service, io.StringIO("\n".join(lines))
        )
        service.flush()
        assert stats.accepted == stats.offered == 24
        counters = views.quality(service)[1]["counters"]
        assert counters.get("counter_resets", 0) == 1
        service.close()

    def test_import_stats_track_acceptance(self):
        class RejectAll:
            def ingest_frames(self, frames):
                return 0

        stream = io.StringIO("timestamp,value\n0,1.0\n60,2.0\n")
        stats = CsvImporter().import_into(RejectAll(), stream)
        assert stats.offered == 2
        assert stats.accepted == 0


class TestImportStats:
    def test_time_range_and_series_count(self):
        stats = ImportStats()
        stream = io.StringIO(
            "name,timestamp,value\nsvc.a,120,1\nsvc.b,60,1\nsvc.a,180,1\n"
        )
        list(CsvImporter().iter_samples(stream))  # no stats: still parses
        stream.seek(0)
        service = _Collecting()
        stats = CsvImporter().import_into(service, stream)
        assert (stats.first_timestamp, stats.last_timestamp) == (60.0, 180.0)
        assert stats.series == 2
