"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.tsdb import TimeSeriesDatabase, WindowSpec


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def step_series(rng) -> np.ndarray:
    """200 points stepping from mean 0 to mean 1 at index 100."""
    return np.concatenate([rng.normal(0, 0.5, 100), rng.normal(1, 0.5, 100)])


@pytest.fixture
def flat_series(rng) -> np.ndarray:
    """200 points of pure noise around 0."""
    return rng.normal(0, 0.5, 200)


@pytest.fixture
def small_config() -> DetectionConfig:
    """A config with laptop-scale windows (600/200/100 points at 60s)."""
    return DetectionConfig(
        name="test",
        threshold=0.00002,
        rerun_interval=3600.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
    )


@pytest.fixture
def empty_db() -> TimeSeriesDatabase:
    return TimeSeriesDatabase()


@pytest.fixture
def socket_writes(monkeypatch):
    """Sizes of every write ``http.server`` handlers make on their sockets.

    A handler's ``wfile`` is unbuffered, so one write is one ``send``:
    a reply in two writes is two segments, and the second waits on the
    client's delayed ACK.
    """
    from http.server import BaseHTTPRequestHandler

    writes = []
    original = BaseHTTPRequestHandler.setup

    def setup(handler):
        original(handler)
        send = handler.wfile.write

        def write(data):
            writes.append(len(data))
            return send(data)

        handler.wfile.write = write

    monkeypatch.setattr(BaseHTTPRequestHandler, "setup", setup)
    return writes


def fill_series(db: TimeSeriesDatabase, name: str, values, interval: float = 60.0, tags=None):
    """Write ``values`` on a uniform grid starting at t=0."""
    series = db.create(name, tags or {})
    for i, value in enumerate(values):
        series.append(i * interval, float(value))
    return series
