"""Detection configurations, including every Table 1 workload preset.

A :class:`DetectionConfig` carries everything one periodic detection run
needs: window durations (Figure 4), the re-run interval, the detection
threshold (absolute, like FrontFaaS's 0.005% gCPU, or relative, like
Capacity Triage's 5%), and which detection paths run.  Table 1's
"Leverage Stack Trace" column is not a field: a workload without stack
traces registers no samples, and its scans read an empty
:class:`~repro.core.types.ScanContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.tsdb.windows import WindowSpec

__all__ = ["DetectionConfig", "TABLE1_CONFIGS", "table1_config"]

HOUR = 3600.0
DAY = 24 * HOUR


@dataclass(frozen=True)
class DetectionConfig:
    """One FBDetect workload configuration (a Table 1 row).

    Attributes:
        name: Configuration label.
        threshold: Detection threshold Δ.  Interpreted as an absolute
            metric shift when ``relative_threshold`` is ``False`` (e.g.
            0.00005 = a 0.005% gCPU increase), and as a fraction of the
            baseline when ``True`` (e.g. 0.05 = 5% relative).
        relative_threshold: Threshold interpretation (Table 1's last
            three rows are relative).
        rerun_interval: Seconds between detection runs.
        windows: Historic/analysis/extended durations.
        long_term: Whether the long-term path runs for this workload
            (PythonFaaS skips it, per Table 3).
        higher_is_worse: Metric orientation; throughput-style metrics
            regress *downward* and are negated before detection.
        seasonality_period: Known season length in samples, if any.
    """

    name: str
    threshold: float
    relative_threshold: bool = False
    rerun_interval: float = 2 * HOUR
    windows: WindowSpec = field(
        default_factory=lambda: WindowSpec(historic=10 * DAY, analysis=4 * HOUR, extended=6 * HOUR)
    )
    long_term: bool = True
    higher_is_worse: bool = True
    seasonality_period: Optional[int] = None

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.rerun_interval <= 0:
            raise ValueError("rerun_interval must be positive")

    def exceeds_threshold(self, magnitude: float, baseline: float) -> bool:
        """Whether a regression magnitude clears this configuration's Δ."""
        if self.relative_threshold:
            if baseline == 0:
                return magnitude > 0
            return magnitude / abs(baseline) >= self.threshold
        return magnitude >= self.threshold

    def with_windows(
        self,
        historic: Optional[float] = None,
        analysis: Optional[float] = None,
        extended: Optional[float] = None,
    ) -> "DetectionConfig":
        """A copy with some window durations replaced (test/demo helper)."""
        spec = WindowSpec(
            historic=historic if historic is not None else self.windows.historic,
            analysis=analysis if analysis is not None else self.windows.analysis,
            extended=extended if extended is not None else self.windows.extended,
        )
        return replace(self, windows=spec)


def _spec(historic_days: float, analysis: float, extended: float) -> WindowSpec:
    return WindowSpec(historic=historic_days * DAY, analysis=analysis, extended=extended)


#: All twelve Table 1 rows.  Thresholds are in metric units: gCPU rows use
#: fractions (0.005% -> 0.00005); "relative" rows use fractions of baseline.
TABLE1_CONFIGS: Dict[str, DetectionConfig] = {
    "frontfaas_large": DetectionConfig(
        name="FrontFaaS (large)",
        threshold=0.03,
        rerun_interval=0.5 * HOUR,
        windows=_spec(10, 3 * HOUR, 0.0),
    ),
    "frontfaas_small": DetectionConfig(
        name="FrontFaaS (small)",
        threshold=0.00005,
        rerun_interval=2 * HOUR,
        windows=_spec(10, 4 * HOUR, 6 * HOUR),
    ),
    "pythonfaas_large": DetectionConfig(
        name="PythonFaaS (large)",
        threshold=0.005,
        rerun_interval=1 * HOUR,
        windows=_spec(10, 6 * HOUR, 0.0),
        long_term=False,
    ),
    "pythonfaas_small": DetectionConfig(
        name="PythonFaaS (small)",
        threshold=0.0003,
        rerun_interval=4 * HOUR,
        windows=_spec(10, 6 * HOUR, 6 * HOUR),
        long_term=False,
    ),
    "tao_frontfaas": DetectionConfig(
        name="TAO (FrontFaaS)",
        threshold=0.0005,
        rerun_interval=2 * HOUR,
        windows=_spec(10, 4 * HOUR, 1 * DAY),
    ),
    "tao_non_frontfaas": DetectionConfig(
        name="TAO (non-FrontFaaS)",
        threshold=0.0005,
        rerun_interval=1 * HOUR,
        windows=_spec(10, 1 * DAY, 6 * HOUR),
    ),
    "adserving_short": DetectionConfig(
        name="AdServing (short)",
        threshold=0.002,
        rerun_interval=6 * HOUR,
        windows=_spec(10, 1 * DAY, 12 * HOUR),
    ),
    "adserving_long": DetectionConfig(
        name="AdServing (long)",
        threshold=0.001,
        rerun_interval=1 * DAY,
        windows=_spec(16, 9 * DAY, 0.0),
    ),
    "invoicer_short": DetectionConfig(
        name="Invoicer (short)",
        threshold=0.005,
        rerun_interval=12 * HOUR,
        windows=_spec(14, 1 * DAY, 1 * DAY),
    ),
    "ct_supply_short": DetectionConfig(
        name="CT-supply (short)",
        threshold=0.05,
        relative_threshold=True,
        rerun_interval=12 * HOUR,
        windows=_spec(7, 1 * DAY, 1 * DAY),
        higher_is_worse=False,
    ),
    "ct_supply_long": DetectionConfig(
        name="CT-supply (long)",
        threshold=0.05,
        relative_threshold=True,
        rerun_interval=12 * HOUR,
        windows=_spec(10, 7 * DAY, 1 * DAY),
        higher_is_worse=False,
    ),
    "ct_demand": DetectionConfig(
        name="CT-demand",
        threshold=0.05,
        relative_threshold=True,
        rerun_interval=12 * HOUR,
        windows=_spec(7, 1 * DAY, 0.0),
        higher_is_worse=True,
    ),
}


def table1_config(key: str) -> DetectionConfig:
    """Look up a Table 1 preset by key.

    Raises:
        KeyError: Listing the valid keys, when unknown.
    """
    try:
        return TABLE1_CONFIGS[key]
    except KeyError:
        raise KeyError(
            f"unknown config {key!r}; valid keys: {sorted(TABLE1_CONFIGS)}"
        ) from None
