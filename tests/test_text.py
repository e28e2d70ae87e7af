"""Tests for repro.text."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.text import similarity, tokenize
from repro.text.similarity import cosine_similarity, text_cosine_similarity
from repro.text.tfidf import NgramTfidfVectorizer, TfidfVectorizer
from repro.text.tokenize import char_ngrams, tokenize_identifier, tokenize_text


class TestTokenizeIdentifier:
    def test_snake_case(self):
        assert tokenize_identifier("get_assoc_range") == ["get", "assoc", "range"]

    def test_camel_case(self):
        assert tokenize_identifier("FrontFaaSRanker") == ["front", "faa", "s", "ranker"]

    def test_namespaces(self):
        assert tokenize_identifier("svc::Klass::method") == ["svc", "klass", "method"]

    def test_mixed(self):
        assert tokenize_identifier("TaoClient::getAssoc_range") == [
            "tao",
            "client",
            "get",
            "assoc",
            "range",
        ]

    def test_empty(self):
        assert tokenize_identifier("") == []

    def test_numbers_kept(self):
        assert "v2" in tokenize_identifier("parse_v2") or "2" in tokenize_identifier("parse_v2")


class TestTokenizeText:
    def test_prose(self):
        assert tokenize_text("Loosening constraints for foo") == [
            "loosening",
            "constraints",
            "for",
            "foo",
        ]

    def test_embedded_identifiers(self):
        tokens = tokenize_text("optimize fooBar handler")
        assert "foo" in tokens and "bar" in tokens

    def test_memoised_tokens_come_back_as_a_fresh_list(self):
        """A caller may do what it likes with its list: the cache keeps its own."""
        first = tokenize_text("optimize fooBar handler")
        first.append("corrupted")
        first[0] = "x"
        again = tokenize_text("optimize fooBar handler")
        assert again == ["optimize", "foo", "bar", "handler"] and again is not first


class TestCharNgrams:
    def test_paper_gram_lengths(self):
        grams = char_ngrams("abcd")
        assert "ab" in grams and "abc" in grams
        assert "abcd" not in grams

    def test_counts(self):
        with patch.object(tokenize, "NGRAM_LENGTHS", (2,)):
            grams = char_ngrams("abcd")
        assert grams == ["ab", "bc", "cd"]

    def test_short_text(self):
        assert char_ngrams("a") == []

    def test_invalid_n_raises(self):
        with patch.object(tokenize, "NGRAM_LENGTHS", (0,)), pytest.raises(ValueError):
            char_ngrams("abc")


class TestTfidfVectorizer:
    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform("hello")

    def test_vectors_l2_normalized(self):
        v = TfidfVectorizer().fit(["alpha beta", "beta gamma"])
        assert np.linalg.norm(v.transform("alpha beta")) == pytest.approx(1.0)

    def test_rare_token_weighs_more(self):
        corpus = ["common rare", "common other", "common thing"]
        v = TfidfVectorizer().fit(corpus)
        vec = v.transform("common rare")
        rare_weight = vec @ v.transform("rare")  # one-token documents are unit vectors
        common_weight = vec @ v.transform("common")
        assert rare_weight > common_weight

    def test_oov_ignored(self):
        v = TfidfVectorizer().fit(["alpha"])
        vec = v.transform("completely unknown words")
        assert np.allclose(vec, 0.0)


class TestNgramTfidf:
    def test_similar_ids_close_features(self):
        corpus = ["svc.render_feed.gcpu", "svc.render_feed.latency", "db.query.gcpu"]
        v = NgramTfidfVectorizer().fit(corpus)
        f_same1 = v.metric_id_feature("svc.render_feed.gcpu")
        f_same2 = v.metric_id_feature("svc.render_feed.latency")
        f_diff = v.metric_id_feature("db.query.gcpu")
        assert abs(f_same1 - f_same2) < abs(f_same1 - f_diff)

    def test_deterministic(self):
        v = NgramTfidfVectorizer().fit(["x.gcpu", "y.gcpu"])
        assert v.metric_id_feature("x.gcpu") == v.metric_id_feature("x.gcpu")


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])


class TestTextCosineSimilarity:
    def test_identical_texts(self):
        assert text_cosine_similarity("foo bar", "foo bar") == pytest.approx(1.0)

    def test_disjoint_texts(self):
        assert text_cosine_similarity("alpha beta", "gamma delta") == 0.0

    def test_partial_overlap_between(self):
        similarity = text_cosine_similarity("loosening constraints for foo", "tighten foo")
        assert 0.0 < similarity < 1.0

    def test_prefitted_vectorizer(self):
        v = TfidfVectorizer().fit(["alpha beta gamma", "beta gamma delta"])
        with patch.object(similarity, "VECTORIZER", v):
            assert text_cosine_similarity("alpha beta", "beta delta") > 0.0
