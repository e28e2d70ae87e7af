"""Self-Organizing Map (Kohonen map) for scalable deduplication.

SOMDedup (§5.5.1) chose SOM over KNN and hierarchical clustering because
its single hyperparameter — the grid size — can be set robustly:
``L = ceil(n ** (1/4))`` for an ``L x L`` grid over ``n`` items.  Items
mapped to the same best-matching unit (BMU) form a cluster; training is
O(n) per epoch, versus the O(n^2) of pairwise clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["SelfOrganizingMap", "som_cluster", "som_grid_size"]

#: :func:`som_cluster` merges units closer than this fraction of the
#: median inter-unit distance into one cluster; 0 disables the merge.
MERGE_FACTOR = 0.25


def som_grid_size(n_items: int) -> int:
    """The paper's robust grid-size rule: ``L = ceil(n ** (1/4))``."""
    if n_items <= 0:
        return 1
    return max(1, math.ceil(n_items ** 0.25))


@dataclass
class SelfOrganizingMap:
    """A rectangular Kohonen map trained by the classic online rule.

    Args:
        grid_rows: Number of rows of units.
        grid_cols: Number of columns of units.
        n_epochs: Training passes over the data.
        initial_learning_rate: Starting learning rate; decays linearly.
        initial_radius: Starting neighbourhood radius (defaults to half
            the larger grid dimension); decays exponentially.
        seed: RNG seed for weight initialization and shuffling.
    """

    grid_rows: int
    grid_cols: int
    n_epochs: int = 20
    initial_learning_rate: float = 0.5
    initial_radius: Optional[float] = None
    seed: int = 0
    _weights: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    _coords: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.grid_rows <= 0 or self.grid_cols <= 0:
            raise ValueError("grid dimensions must be positive")
        rows, cols = np.meshgrid(
            np.arange(self.grid_rows), np.arange(self.grid_cols), indexing="ij"
        )
        self._coords = np.column_stack([rows.ravel(), cols.ravel()]).astype(float)

    @property
    def n_units(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def weights(self) -> np.ndarray:
        """Unit weight matrix, shape ``(n_units, n_features)``."""
        if self._weights is None:
            raise RuntimeError("SOM has not been fitted")
        return self._weights

    def fit(self, data: Sequence[Sequence[float]]) -> "SelfOrganizingMap":
        """Train the map on ``data`` (shape ``(n_items, n_features)``).

        Features are z-normalized internally so no single feature
        dominates the distance metric.
        """
        x = np.asarray(data, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("data must be a non-empty 2-D array")
        self._mean = x.mean(axis=0)
        std = x.std(axis=0)
        self._std = np.where(std > 0, std, 1.0)
        x = (x - self._mean) / self._std

        rng = np.random.default_rng(self.seed)
        n, d = x.shape
        # Initialize units at random data points for fast convergence.
        init_idx = rng.integers(0, n, size=self.n_units)
        self._weights = x[init_idx].copy() + rng.normal(0, 1e-3, size=(self.n_units, d))

        radius0 = self.initial_radius or max(self.grid_rows, self.grid_cols) / 2.0
        total_steps = self.n_epochs * n
        step = 0
        for _ in range(self.n_epochs):
            for i in rng.permutation(n):
                progress = step / max(1, total_steps)
                lr = self.initial_learning_rate * (1.0 - progress)
                radius = max(0.5, radius0 * np.exp(-3.0 * progress))
                bmu = self._best_matching_unit(x[i])
                grid_dist = np.linalg.norm(self._coords - self._coords[bmu], axis=1)
                influence = np.exp(-(grid_dist ** 2) / (2 * radius ** 2))
                self._weights += lr * influence[:, None] * (x[i] - self._weights)
                step += 1
        return self

    def _best_matching_unit(self, point: np.ndarray) -> int:
        return int(np.argmin(np.linalg.norm(self._weights - point, axis=1)))

    def predict(self, data: Sequence[Sequence[float]]) -> np.ndarray:
        """Map each item to its best-matching unit index."""
        if self._weights is None:
            raise RuntimeError("SOM has not been fitted")
        x = (np.asarray(data, dtype=float) - self._mean) / self._std
        return np.array([self._best_matching_unit(p) for p in x])


def _merge_close_units(
    weights: np.ndarray,
    used_units: Sequence[int],
    merge_factor: float,
) -> Dict[int, int]:
    """Union close units into groups; returns unit -> group-root mapping.

    Two units merge when their codebook distance is below ``merge_factor``
    times the median pairwise distance among used units — nearby units on
    a trained SOM represent the same dense region of feature space, and
    treating them as separate clusters would under-deduplicate.
    """
    units = list(used_units)
    parent = {u: u for u in units}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    if len(units) < 2:
        return parent
    dists = [
        float(np.linalg.norm(weights[a] - weights[b]))
        for i, a in enumerate(units)
        for b in units[i + 1 :]
    ]
    threshold = merge_factor * float(np.median(dists))
    for i, a in enumerate(units):
        for b in units[i + 1 :]:
            if float(np.linalg.norm(weights[a] - weights[b])) <= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    return {u: find(u) for u in units}


def som_cluster(
    features: Sequence[Sequence[float]],
    grid_size: Optional[int] = None,
    seed: int = 0,
) -> List[List[int]]:
    """Cluster items by shared (or nearby) best-matching unit.

    Items mapping to the same BMU form a cluster; units whose codebook
    vectors are much closer than typical are merged, since a trained map
    spreads a dense region across adjacent units (:data:`MERGE_FACTOR`).

    Args:
        features: ``(n_items, n_features)`` feature matrix.
        grid_size: Side of the square grid; defaults to the paper's
            ``ceil(n ** 1/4)`` rule.
        seed: Training RNG seed.

    Returns:
        A list of clusters, each a list of item indices, ordered by the
        smallest index they contain.  Every item appears exactly once.
    """
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    if n == 0:
        return []
    if n == 1:
        return [[0]]
    size = grid_size or som_grid_size(n)
    som = SelfOrganizingMap(grid_rows=size, grid_cols=size, seed=seed).fit(x)
    assignments = som.predict(x)

    used = sorted(set(int(u) for u in assignments))
    if MERGE_FACTOR > 0:
        roots = _merge_close_units(som.weights, used, MERGE_FACTOR)
    else:
        roots = {u: u for u in used}

    by_group: Dict[int, List[int]] = {}
    for item, unit in enumerate(assignments):
        by_group.setdefault(roots[int(unit)], []).append(item)
    return sorted(by_group.values(), key=lambda members: members[0])
