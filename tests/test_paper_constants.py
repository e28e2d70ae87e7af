"""Anchors: every constant the paper states, asserted in one place.

If a refactor drifts any paper-specified parameter, this file fails
loudly with the section reference.
"""

import pytest

from repro.config import DAY, HOUR, TABLE1_CONFIGS
from repro.core import importance, root_cause, went_away
from repro.core.change_point import ChangePointDetector
from repro.som import som_grid_size
from repro.stats.robust import NORMALITY_CONSTANT
from repro.stats.sax import DEFAULT_BUCKETS, DEFAULT_VALID_FRACTION


class TestPaperConstants:
    def test_sax_settings_5_2_2(self):
        # "settled on N=20 and X=3%"
        assert DEFAULT_BUCKETS == 20
        assert DEFAULT_VALID_FRACTION == 0.03
        # ... and they are the ones went-away encodes with.
        assert went_away.DEFAULT_BUCKETS is DEFAULT_BUCKETS
        assert went_away.DEFAULT_VALID_FRACTION is DEFAULT_VALID_FRACTION

    def test_mad_threshold_5_2_2(self):
        # "Median Absolute Deviation with a normality constant of 1.4826"
        # and "a regression coefficient (default 1.5)".
        assert NORMALITY_CONSTANT == 1.4826
        assert went_away.REGRESSION_COEFFICIENT == 1.5

    def test_lrt_significance_5_2_1(self):
        # "the likelihood-ratio chi-squared test with the significance
        # level of 0.01".
        assert ChangePointDetector().significance_level == 0.01

    def test_importance_weights_5_5_1(self):
        # "default values: w1=0.2, w2=0.6, w3=0.1, w4=0.1".
        weights = (
            importance.RELATIVE_COST_WEIGHT,
            importance.ABSOLUTE_COST_WEIGHT,
            importance.UNPOPULARITY_WEIGHT,
            importance.ROOT_CAUSE_FOUND_WEIGHT,
        )
        assert weights == (0.2, 0.6, 0.1, 0.1)
        assert sum(weights) == pytest.approx(1.0)

    def test_top_three_root_causes_5_6(self):
        # §5.6 ranks candidate changes and §6.3 judges the top 3 ("71/75
        # top-3 correct"), so that is what a report carries.
        assert root_cause.TOP_K == 3

    def test_som_grid_rule_5_5_1(self):
        # "a grid size of L x L, where L = ceil(n^(1/4))".
        for n, expected in ((1, 1), (16, 2), (17, 3), (81, 3), (82, 4), (625, 5)):
            assert som_grid_size(n) == expected, n

    def test_table1_row_count_and_units(self):
        # Twelve rows; absolute thresholds on the first nine, relative on
        # the last three (the CT rows).
        assert len(TABLE1_CONFIGS) == 12
        relative = [k for k, c in TABLE1_CONFIGS.items() if c.relative_threshold]
        assert sorted(relative) == ["ct_demand", "ct_supply_long", "ct_supply_short"]

    def test_table1_window_extremes(self):
        # Historic windows range 7-16 days; analysis 3 hours - 9 days.
        historics = [c.windows.historic for c in TABLE1_CONFIGS.values()]
        analyses = [c.windows.analysis for c in TABLE1_CONFIGS.values()]
        assert min(historics) == 7 * DAY
        assert max(historics) == 16 * DAY
        assert min(analyses) == 3 * HOUR
        assert max(analyses) == 9 * DAY

    def test_smallest_detection_threshold_is_0_005_percent(self):
        smallest = min(
            c.threshold for c in TABLE1_CONFIGS.values() if not c.relative_threshold
        )
        assert smallest == pytest.approx(0.00005)  # 0.005%

    def test_non_trivial_gcpu_definition_section_2(self):
        # "those with a gCPU of 0.001% or higher as non-trivial".
        from repro.profiling.gcpu import GcpuTable

        table = GcpuTable(total_weight=100.0, weights={"a": 0.002, "b": 1.0})
        assert table.non_trivial() == ["b", "a"]  # 0.002% and 1% both >= 0.001%
        table_tiny = GcpuTable(total_weight=100.0, weights={"c": 0.0005})
        assert table_tiny.non_trivial() == []  # 0.0005% < 0.001%
