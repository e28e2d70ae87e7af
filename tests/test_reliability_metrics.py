"""Coredump metric emission (§3) and site-reliability detection (§8).

The paper lists coredump count among monitored metrics and names "site
and hardware reliability" as a future application domain.  These tests
exercise both: the simulator emits coredump counts, and the unchanged
pipeline detects a persistent error-rate regression (a reliability
anomaly) just like a performance one.
"""

import numpy as np
import pytest

from repro import FBDetect, TimeSeriesDatabase
from repro.config import DetectionConfig
from repro.fleet import FleetSimulator, ServiceSpec
from repro.fleet.subroutine import CallGraph, SubroutineSpec
from repro.tsdb import WindowSpec

from conftest import fill_series


def tiny_graph():
    graph = CallGraph()
    graph.add(SubroutineSpec("svc::M::run", self_cost=1.0, parent="_start"))
    return graph


class TestCoredumpMetric:
    def test_emitted_with_tags(self):
        spec = ServiceSpec("svc", tiny_graph(), n_servers=20, effective_samples=10_000,
                           samples_per_interval=0)
        result = FleetSimulator(spec, interval=60.0, seed=0).run(20)
        series = result.database.get("svc.coredumps")
        assert series is not None
        assert series.tags == {"service": "svc", "metric": "coredumps"}
        assert len(series) == 20

    def test_counts_are_nonnegative_integers(self):
        spec = ServiceSpec("svc", tiny_graph(), n_servers=20, effective_samples=10_000,
                           samples_per_interval=0, base_error_rate=0.05)
        result = FleetSimulator(spec, interval=60.0, seed=1).run(50)
        values = result.database.get("svc.coredumps").values
        assert np.all(values >= 0)
        assert np.all(values == np.round(values))

    def test_rate_scales_with_error_rate(self):
        quiet_spec = ServiceSpec("q", tiny_graph(), n_servers=50, effective_samples=10_000,
                                 samples_per_interval=0, base_error_rate=0.001)
        crashy_spec = ServiceSpec("c", tiny_graph(), n_servers=50, effective_samples=10_000,
                                  samples_per_interval=0, base_error_rate=0.1)
        quiet = FleetSimulator(quiet_spec, interval=60.0, seed=2).run(100)
        crashy = FleetSimulator(crashy_spec, interval=60.0, seed=2).run(100)
        assert (
            crashy.database.get("c.coredumps").values.mean()
            > quiet.database.get("q.coredumps").values.mean()
        )


class TestReliabilityAnomalyDetection:
    def test_error_rate_regression_detected(self, rng):
        """§8's new-domain claim holds: the pipeline is metric-agnostic."""
        db = TimeSeriesDatabase()
        values = rng.normal(0.001, 0.0001, 900)
        values[700:] *= 6.0  # error rate sextuples after a bad change
        fill_series(db, "svc.error_rate", np.maximum(values, 0.0),
                    tags={"service": "svc", "metric": "error_rate"})
        config = DetectionConfig(
            name="reliability",
            threshold=0.5,
            relative_threshold=True,
            rerun_interval=3600.0,
            windows=WindowSpec(36_000.0, 12_000.0, 6_000.0),
            long_term=False,
        )
        detector = FBDetect(config, series_filter={"metric": "error_rate"})
        result = detector.run(db, now=54_000.0)
        assert len(result.reported) == 1
        assert result.reported[0].relative_magnitude > 0.5

    def test_transient_error_burst_filtered(self):
        rng = np.random.default_rng(6)
        db = TimeSeriesDatabase()
        values = rng.normal(0.001, 0.0001, 900)
        values[700:780] *= 6.0  # burst recovers
        fill_series(db, "svc.error_rate", np.maximum(values, 0.0),
                    tags={"service": "svc", "metric": "error_rate"})
        config = DetectionConfig(
            name="reliability",
            threshold=0.5,
            relative_threshold=True,
            rerun_interval=3600.0,
            windows=WindowSpec(36_000.0, 12_000.0, 6_000.0),
            long_term=False,
        )
        detector = FBDetect(config, series_filter={"metric": "error_rate"})
        result = detector.run(db, now=54_000.0)
        assert result.reported == []
