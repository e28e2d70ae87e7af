"""Tests for the pipeline's ablation switches."""

import numpy as np
import pytest

from repro import FBDetect, TimeSeriesDatabase
from repro.config import DetectionConfig
from repro.tsdb import WindowSpec

from conftest import fill_series


def config():
    return DetectionConfig(
        name="ablate",
        threshold=0.00005,
        rerun_interval=3600.0,
        windows=WindowSpec(36_000.0, 12_000.0, 6_000.0),
        long_term=False,
    )


def transient_db(seed=5):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.001, 0.00002, 900)
    values[700:790] += 0.0004  # recovers before the window ends
    db = TimeSeriesDatabase()
    fill_series(db, "svc.t.gcpu", values, tags={"metric": "gcpu", "subroutine": "t"})
    return db


class TestAblationFlags:
    def test_disable_went_away_lets_transient_through(self):
        strict = FBDetect(config()).run(transient_db(), now=54_000.0)
        loose = FBDetect(config(), enable_went_away=False).run(
            transient_db(), now=54_000.0
        )
        assert strict.reported == []
        assert len(loose.reported) >= 1

    def test_funnel_stages_still_counted_when_disabled(self):
        result = FBDetect(config(), enable_went_away=False).run(
            transient_db(), now=54_000.0
        )
        # The stage column still exists in the funnel (pass-through).
        assert result.funnel.counts["went_away"] >= 1

    def test_defaults_enable_everything(self):
        detector = FBDetect(config())
        pipeline = detector.pipeline
        assert pipeline.enable_went_away
        assert pipeline.enable_seasonality
        assert pipeline.enable_cost_shift
