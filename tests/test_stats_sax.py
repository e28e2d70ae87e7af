"""Tests for repro.stats.sax."""

import numpy as np
import pytest

from repro.stats.sax import DEFAULT_BUCKETS, DEFAULT_VALID_FRACTION, sax_encode


class TestSaxEncode:
    def test_paper_defaults(self):
        assert DEFAULT_BUCKETS == 20
        assert DEFAULT_VALID_FRACTION == 0.03

    def test_paper_example_shape(self):
        # The paper's example series discretized to 4 letters rises then falls.
        enc = sax_encode([1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1], n_buckets=4)
        assert len(enc.string) == 7
        assert enc.string[0] == "a"
        assert enc.string[3] == "d"
        assert enc.string[-1] == "a"

    def test_string_and_letters_consistent(self):
        enc = sax_encode([0.0, 0.5, 1.0], n_buckets=4)
        assert [ord(c) - ord("a") for c in enc.string] == list(enc.letters)

    def test_empty_series(self):
        enc = sax_encode([])
        assert enc.string == ""
        assert enc.valid_letters == frozenset()

    def test_constant_series_single_bucket(self):
        enc = sax_encode(np.full(10, 3.0), n_buckets=5)
        assert len(set(enc.letters)) == 1
        assert enc.count_outside(enc.valid_letters) == 0

    def test_validity_threshold(self):
        # 97 points in bucket 'a', 3 in top bucket: at 3% of 100 = 3 points,
        # both buckets are valid; at 10%, only 'a' is.
        values = [0.0] * 97 + [1.0] * 3
        enc3 = sax_encode(values, n_buckets=2, valid_fraction=0.03)
        assert len(enc3.valid_letters) == 2
        enc10 = sax_encode(values, n_buckets=2, valid_fraction=0.10)
        assert enc10.valid_letters == frozenset({0})

    def test_outlier_bucket_invalid_at_defaults(self):
        # A single spike among 200 points is < 3% -> invalid bucket.
        values = [0.0] * 199 + [10.0]
        enc = sax_encode(values)
        assert enc.max_letter() not in enc.valid_letters
        assert enc.max_valid_letter() < enc.max_letter()

    def test_external_value_range(self):
        historic = sax_encode([0.0, 1.0] * 50)
        grid = (historic.bucket_edges[0], historic.bucket_edges[-1])
        post = sax_encode([2.0, 2.1], value_range=grid)
        # Values above the grid clip into the top bucket.
        assert all(letter == post.n_buckets - 1 for letter in post.letters)

    def test_letter_counts(self):
        enc = sax_encode([0.0, 0.0, 1.0], n_buckets=2)
        counts = enc.letter_counts()
        assert counts[0] == 2
        assert counts[1] == 1

    def test_bucket_lower_bound_monotone(self):
        enc = sax_encode(np.linspace(0, 1, 100), n_buckets=10)
        bounds = [enc.bucket_lower_bound(i) for i in range(10)]
        assert bounds == sorted(bounds)

    def test_invalid_bucket_count_raises(self):
        with pytest.raises(ValueError):
            sax_encode([1.0], n_buckets=0)
        with pytest.raises(ValueError):
            sax_encode([1.0], n_buckets=100)
