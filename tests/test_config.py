"""Tests for repro.config (Table 1 presets)."""

import pytest

from repro.config import DAY, HOUR, TABLE1_CONFIGS, DetectionConfig, table1_config
from repro.tsdb import WindowSpec


class TestDetectionConfig:
    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError):
            DetectionConfig(name="x", threshold=-1.0)

    def test_invalid_rerun_raises(self):
        with pytest.raises(ValueError):
            DetectionConfig(name="x", threshold=0.1, rerun_interval=0.0)

    def test_absolute_threshold(self):
        config = DetectionConfig(name="x", threshold=0.001)
        assert config.exceeds_threshold(0.002, baseline=1.0)
        assert not config.exceeds_threshold(0.0005, baseline=1.0)

    def test_relative_threshold(self):
        config = DetectionConfig(name="x", threshold=0.05, relative_threshold=True)
        assert config.exceeds_threshold(0.06, baseline=1.0)  # 6% relative
        assert not config.exceeds_threshold(0.04, baseline=1.0)
        assert config.exceeds_threshold(6.0, baseline=100.0)

    def test_relative_threshold_zero_baseline(self):
        config = DetectionConfig(name="x", threshold=0.05, relative_threshold=True)
        assert config.exceeds_threshold(0.001, baseline=0.0)

    def test_with_windows(self):
        config = table1_config("frontfaas_small").with_windows(analysis=123.0)
        assert config.windows.analysis == 123.0
        assert config.windows.historic == 10 * DAY  # unchanged


class TestTable1Presets:
    def test_all_twelve_rows_present(self):
        assert len(TABLE1_CONFIGS) == 12

    def test_frontfaas_small_matches_paper(self):
        config = table1_config("frontfaas_small")
        assert config.threshold == pytest.approx(0.00005)  # 0.005%
        assert config.rerun_interval == 2 * HOUR
        assert config.windows.historic == 10 * DAY
        assert config.windows.analysis == 4 * HOUR
        assert config.windows.extended == 6 * HOUR

    def test_frontfaas_large_matches_paper(self):
        config = table1_config("frontfaas_large")
        assert config.threshold == pytest.approx(0.03)  # 3%
        assert config.rerun_interval == 0.5 * HOUR
        assert config.windows.extended == 0.0  # N/A

    def test_pythonfaas_skips_long_term(self):
        assert not table1_config("pythonfaas_small").long_term
        assert not table1_config("pythonfaas_large").long_term

    def test_invoicer_long_windows(self):
        config = table1_config("invoicer_short")
        assert config.windows.historic == 14 * DAY
        assert config.threshold == pytest.approx(0.005)  # 0.5%

    def test_ct_rows_relative_no_stack_traces(self):
        for key in ("ct_supply_short", "ct_supply_long", "ct_demand"):
            config = table1_config(key)
            assert config.relative_threshold
            assert config.threshold == 0.05

    def test_ct_supply_is_lower_worse(self):
        # Supply-side: a *drop* in max throughput is the regression.
        assert not table1_config("ct_supply_short").higher_is_worse
        # Demand-side: an *increase* in peak requests is the regression.
        assert table1_config("ct_demand").higher_is_worse

    def test_adserving_long_widest_windows(self):
        config = table1_config("adserving_long")
        assert config.windows.historic == 16 * DAY
        assert config.windows.analysis == 9 * DAY

    def test_unknown_key_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="valid keys"):
            table1_config("nope")

    def test_detection_order_thresholds(self):
        # Small-threshold configs wait longer between runs than large ones.
        assert (
            table1_config("frontfaas_small").rerun_interval
            > table1_config("frontfaas_large").rerun_interval
        )
