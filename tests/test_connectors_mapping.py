"""Tests for the external→internal series identity mapper."""

import pytest

from repro.connectors import SeriesMapper


class TestNameMangling:
    def test_dotted_names_pass_through(self):
        mapped = SeriesMapper(source="csv").map("svc.render.gcpu")
        assert mapped.name == "svc.render.gcpu"
        assert mapped.tags["metric"] == "gcpu"
        assert mapped.tags["source"] == "csv"

    def test_invalid_characters_fold_to_underscore(self):
        mapped = SeriesMapper(source="csv").map('http latency{quantile="0.99"}')
        assert " " not in mapped.name
        assert "{" not in mapped.name and '"' not in mapped.name

    def test_empty_name_rejected(self):
        mapper = SeriesMapper(source="csv")
        with pytest.raises(ValueError):
            mapper.map("")
        with pytest.raises(ValueError):
            mapper.map("{}")  # mangles to nothing


class TestUnitAndTypeTagging:
    def test_unit_suffix_lifted(self):
        mapped = SeriesMapper(source="rw").map("http_request_duration_seconds")
        assert mapped.tags["unit"] == "seconds"
        assert mapped.tags["metric"] == "http_request_duration"

    def test_counter_suffix_detected(self):
        mapped = SeriesMapper(source="rw").map("http_requests_total")
        assert mapped.tags["type"] == "counter"
        assert mapped.tags["metric"] == "http_requests"

    def test_counter_then_unit_suffix(self):
        mapped = SeriesMapper(source="rw").map("cpu_usage_seconds_total")
        assert mapped.tags["type"] == "counter"
        assert mapped.tags["unit"] == "seconds"

    def test_explicit_counter_label(self):
        mapped = SeriesMapper(source="rw").map("events", {"type": "counter"})
        assert mapped.tags["type"] == "counter"

    def test_plain_gauge_untyped(self):
        mapped = SeriesMapper(source="rw").map("queue_depth")
        assert "type" not in mapped.tags
        assert "unit" not in mapped.tags


class TestLabelHandling:
    def test_labels_fan_out_into_distinct_series(self):
        mapper = SeriesMapper(source="rw")
        a = mapper.map("lat_seconds", {"job": "api", "zone": "a"})
        b = mapper.map("lat_seconds", {"job": "api", "zone": "b"})
        assert a.name != b.name
        assert a.tags["zone"] == "a" and b.tags["zone"] == "b"

    def test_label_order_does_not_matter(self):
        mapper = SeriesMapper(source="rw")
        a = mapper.map("lat", {"job": "api", "zone": "a"})
        b = mapper.map("lat", {"zone": "a", "job": "api"})
        assert a == b

    def test_dunder_name_label_consumed(self):
        mapped = SeriesMapper(source="rw").map(
            "lat", {"__name__": "lat", "job": "api"}
        )
        assert "__name__" not in mapped.tags
        assert "__name__" not in mapped.name


class TestDeterminismAndMemo:
    def test_mapping_is_deterministic_across_instances(self):
        a = SeriesMapper(source="rw").map("x_total", {"j": "1"})
        b = SeriesMapper(source="rw").map("x_total", {"j": "1"})
        assert a == b

    def test_memo_returns_same_object(self):
        mapper = SeriesMapper(source="rw")
        assert mapper.map("x", {"a": "1"}) is mapper.map("x", {"a": "1"})
