"""Tests for repro.som."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.som import SelfOrganizingMap, som_cluster, som_grid_size
from repro.som import som as som_module


class TestGridSize:
    def test_paper_rule(self):
        assert som_grid_size(16) == 2
        assert som_grid_size(81) == 3
        assert som_grid_size(100) == 4  # ceil(100^0.25) = ceil(3.16)

    def test_small_inputs(self):
        assert som_grid_size(0) == 1
        assert som_grid_size(1) == 1


class TestSelfOrganizingMap:
    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError):
            SelfOrganizingMap(grid_rows=0, grid_cols=2)

    def test_weights_before_fit_raises(self):
        som = SelfOrganizingMap(grid_rows=2, grid_cols=2)
        with pytest.raises(RuntimeError):
            _ = som.weights

    def test_predict_before_fit_raises(self):
        som = SelfOrganizingMap(grid_rows=2, grid_cols=2)
        with pytest.raises(RuntimeError):
            som.predict([[1.0, 2.0]])

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            SelfOrganizingMap(grid_rows=2, grid_cols=2).fit(np.empty((0, 3)))

    def test_separates_two_blobs(self, rng):
        a = rng.normal(0, 0.1, (25, 4))
        b = rng.normal(10, 0.1, (25, 4))
        som = SelfOrganizingMap(grid_rows=2, grid_cols=2, seed=0).fit(np.vstack([a, b]))
        units_a = set(som.predict(a))
        units_b = set(som.predict(b))
        assert units_a.isdisjoint(units_b)

    def test_deterministic_with_seed(self, rng):
        data = rng.normal(0, 1, (30, 3))
        w1 = SelfOrganizingMap(2, 2, seed=7).fit(data).weights
        w2 = SelfOrganizingMap(2, 2, seed=7).fit(data).weights
        assert np.allclose(w1, w2)


class TestSomCluster:
    def test_empty(self):
        assert som_cluster(np.empty((0, 2))) == []

    def test_single_item(self):
        assert som_cluster([[1.0, 2.0]]) == [[0]]

    def test_two_blobs_two_clusters(self, rng):
        a = rng.normal(0, 0.1, (20, 3))
        b = rng.normal(5, 0.1, (15, 3))
        clusters = som_cluster(np.vstack([a, b]))
        assert len(clusters) == 2
        assert sorted(clusters[0]) == list(range(20))
        assert sorted(clusters[1]) == list(range(20, 35))

    def test_partition_property(self, rng):
        data = rng.normal(0, 1, (40, 5))
        clusters = som_cluster(data)
        flattened = sorted(i for cluster in clusters for i in cluster)
        assert flattened == list(range(40))

    def test_merge_factor_zero_allows_fragmentation(self, rng):
        a = rng.normal(0, 0.1, (20, 3))
        b = rng.normal(5, 0.1, (15, 3))
        merged = som_cluster(np.vstack([a, b]))
        with patch.object(som_module, "MERGE_FACTOR", 0.0):
            unmerged = som_cluster(np.vstack([a, b]))
        assert len(unmerged) >= len(merged)

    def test_identical_items_single_cluster(self):
        data = np.ones((10, 3))
        clusters = som_cluster(data)
        assert len(clusters) == 1
