"""Tests for the Mozilla corpus importer and the generated slice."""

import io
import json
import os
import sys

import pytest

from repro.connectors import SeriesMapper, import_corpus, load_corpus
from repro.connectors.mozilla import INVALID_STATUSES, corpus_samples

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "scripts"))
from make_mozilla_slice import write_slice  # noqa: E402


@pytest.fixture(scope="session")
def slice_path(tmp_path_factory):
    """The slice ``scripts/make_mozilla_slice.py`` generates, written once."""
    return write_slice(str(tmp_path_factory.mktemp("mozilla") / "mozilla_slice.json"))


def tiny_slice(**overrides):
    payload = {
        "dataset": "test",
        "interval_seconds": 3600,
        "series": [
            {
                "signature_id": 1,
                "framework": "talos",
                "suite": "tp5o",
                "test": "responsiveness",
                "platform": "windows10-64",
                "repository": "autoland",
                "unit": "ms",
                "lower_is_better": True,
                "measurements": [[1000, 1.0], [4600, 1.1], [8200, 1.2]],
            },
            {
                "signature_id": 2,
                "framework": "awsy",
                "suite": "memory",
                "test": "base-memory",
                "platform": "linux1804-64",
                "repository": "autoland",
                "unit": "bytes",
                "lower_is_better": True,
                "measurements": [[1000, 9.0], [4600, 9.1]],
            },
        ],
        "alerts": [
            {"signature_id": 1, "push_timestamp": 4600,
             "is_regression": True, "status": "acknowledged"},
            {"signature_id": 1, "push_timestamp": 8200,
             "is_regression": True, "status": "invalid"},
            {"signature_id": 2, "push_timestamp": 4600,
             "is_regression": False, "status": "acknowledged"},
        ],
    }
    payload.update(overrides)
    return payload


class TestLoadCorpus:
    def test_loads_from_stream(self):
        corpus = load_corpus(io.StringIO(json.dumps(tiny_slice())))
        assert len(corpus.series) == 2
        assert len(corpus.alerts) == 3
        assert corpus.span == (1000.0, 8200.0)

    def test_missing_keys_raise_value_error(self):
        bad = tiny_slice()
        del bad["series"][0]["framework"]
        with pytest.raises(ValueError, match="malformed"):
            load_corpus(io.StringIO(json.dumps(bad)))

    def test_unsorted_measurements_rejected(self):
        bad = tiny_slice()
        bad["series"][0]["measurements"] = [[4600, 1.0], [1000, 1.1]]
        with pytest.raises(ValueError, match="time-ordered"):
            load_corpus(io.StringIO(json.dumps(bad)))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            load_corpus(io.StringIO(json.dumps(tiny_slice(series=[]))))


class TestGroundTruth:
    def test_invalid_and_improvement_alerts_excluded(self):
        corpus = load_corpus(io.StringIO(json.dumps(tiny_slice())))
        mapper = SeriesMapper(source="mozilla")
        labels = corpus.labeled_regressions(mapper)
        # Of three alerts only one is ground truth: the acknowledged
        # regression.  The sheriff-invalid one and the improvement
        # (is_regression false) are excluded.
        assert sum(len(times) for times in labels.values()) == 1
        [(name, times)] = labels.items()
        assert times == [4600.0]
        assert name == mapper.map(corpus.series[0].external_name).name

    def test_invalid_statuses_frozen(self):
        assert "invalid" in INVALID_STATUSES
        assert "acknowledged" not in INVALID_STATUSES


class TestCorpusSamples:
    def test_interleaved_in_push_order(self):
        corpus = load_corpus(io.StringIO(json.dumps(tiny_slice())))
        samples = list(corpus_samples(corpus, SeriesMapper(source="mozilla")))
        assert [s.timestamp for s in samples] == sorted(
            s.timestamp for s in samples
        )
        assert len({s.name for s in samples}) == 2

    def test_tags_carry_perfherder_dimensions(self):
        corpus = load_corpus(io.StringIO(json.dumps(tiny_slice())))
        sample = next(
            iter(corpus_samples(corpus, SeriesMapper(source="mozilla")))
        )
        assert sample.tags["source"] == "mozilla"
        assert sample.tags["suite"] in ("tp5o", "memory")
        assert sample.tags["metric"] in ("responsiveness", "base-memory")

    def test_import_corpus_offers_everything(self):
        class Collecting:
            def __init__(self):
                self.frames = []

            def ingest_frames(self, frames):
                self.frames.extend(frames)
                return sum(len(frame) for frame in frames)

        corpus = load_corpus(io.StringIO(json.dumps(tiny_slice())))
        target = Collecting()
        stats = import_corpus(target, corpus)
        assert stats.offered == stats.accepted == 5
        assert stats.series == 2
        # One frame per signature, each in push-time order.
        assert len(target.frames) == 2
        assert sorted(len(frame) for frame in target.frames) == [2, 3]


class TestCommittedSlice:
    """The generated slice (no longer committed) is the corpus the bench
    and the connector smoke score."""

    def test_slice_loads_and_is_labeled(self, slice_path):
        corpus = load_corpus(slice_path)
        labels = corpus.labeled_regressions(SeriesMapper(source="mozilla"))
        assert len(corpus.series) == 12
        assert sum(len(times) for times in labels.values()) == 4
