"""Tests for repro.stats.incremental (Page's CUSUM, scalar reference)."""

import pickle

import numpy as np

from repro.stats import StreamingCusum


def _anchored(reference):
    """A screen anchored on the mean/std of a reference window."""
    return StreamingCusum(float(reference.mean()), float(reference.std()))


def _fold(cusum, values):
    """The scalar fold: one ``update`` per point; returns ``fired``."""
    for value in values:
        cusum.update(float(value))
    return cusum.fired


class TestStreamingCusum:
    def test_quiet_stream_does_not_fire(self):
        # One staleness-window's worth of quiet points: between full
        # scans the screen sees at most an analysis span of new data.
        rng = np.random.default_rng(2)
        reference = rng.normal(0.001, 0.00002, 200)
        cusum = _anchored(reference)
        assert not _fold(cusum, rng.normal(0.001, 0.00002, 150))

    def test_fires_on_upward_shift(self):
        rng = np.random.default_rng(3)
        reference = rng.normal(0.001, 0.00002, 200)
        cusum = _anchored(reference)
        shifted = rng.normal(0.001, 0.00002, 100) + 0.0001  # 5 sigma
        assert _fold(cusum, shifted)
        assert cusum.fired

    def test_fires_on_downward_shift(self):
        rng = np.random.default_rng(4)
        reference = rng.normal(0.001, 0.00002, 200)
        cusum = _anchored(reference)
        assert _fold(cusum, rng.normal(0.001, 0.00002, 100) - 0.0001)

    def test_fired_is_sticky_until_reanchor(self):
        cusum = StreamingCusum(mean=0.0, std=1.0)
        _fold(cusum, [10.0])
        assert cusum.fired
        _fold(cusum, [0.0] * 50)  # quiet again, still latched
        assert cusum.fired
        cusum.reanchor(mean=0.0, std=1.0)
        assert not cusum.fired
        assert not _fold(cusum, [0.0] * 10)

    def test_zero_std_fires_on_any_deviation(self):
        cusum = StreamingCusum(mean=1.0, std=0.0)
        assert not cusum.update(1.0)
        assert cusum.update(1.0 + 1e-9)

    def test_pickle_round_trip(self):
        cusum = StreamingCusum(mean=0.0, std=1.0)
        _fold(cusum, [0.5, -0.5, 0.5])
        clone = pickle.loads(pickle.dumps(cusum))
        assert clone.fired == cusum.fired
        assert clone.update(100.0)
