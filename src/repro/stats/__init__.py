"""Statistical building blocks for FBDetect-style regression detection.

This subpackage implements, from scratch, every statistical primitive the
paper's pipeline relies on:

- :mod:`repro.stats.cusum` — Cumulative Sum change-point scoring (§5.2.1).
- :mod:`repro.stats.em` — Expectation-Maximization mean-split refinement
  used together with CUSUM to converge on the maximum-likelihood change
  point (§5.2.1).
- :mod:`repro.stats.hypothesis` — the likelihood-ratio chi-squared test
  that validates candidate change points (§5.2.1).
- :mod:`repro.stats.mann_kendall` — the Mann-Kendall trend test used by
  the went-away detector (§5.2.2).
- :mod:`repro.stats.theil_sen` — Theil-Sen slope estimation (§5.2.2).
- :mod:`repro.stats.robust` — Median Absolute Deviation and derived
  robust thresholds (§5.2.2).
- :mod:`repro.stats.sax` — Symbolic Aggregate approXimation
  discretization (§5.2.2).
- :mod:`repro.stats.stl` — Loess smoothing and Seasonal-Trend
  decomposition using Loess (§5.2.3, §5.3).
- :mod:`repro.stats.autocorrelation` — autocorrelation-based seasonality
  presence test (§5.2.3).
- :mod:`repro.stats.changepoint_dp` — normal-loss dynamic-programming
  change-point search used by long-term detection (§5.3).
- :mod:`repro.stats.e_divisive` — energy-statistic change-point test
  with permutation significance (Hunter-style challenger detector).
- :mod:`repro.stats.correlation` — Pearson correlation with alignment
  helpers (§5.5.2, §5.6).
- :mod:`repro.stats.descriptive` — percentiles and summary statistics.
- :mod:`repro.stats.incremental` — Page's CUSUM screen, O(n) in new
  points, backing the pipeline's incremental scan cache.
"""

from repro.stats.autocorrelation import acf, detect_season_length
from repro.stats.changepoint_dp import (
    SplitResult,
    best_split_normal_loss,
    normal_segment_loss,
)
from repro.stats.correlation import aligned_pearson, pearson
from repro.stats.cusum import CusumResult, cusum_changepoint, cusum_split_rows, cusum_statistic
from repro.stats.descriptive import percentile, summarize
from repro.stats.e_divisive import EDivisiveResult, e_divisive_test
from repro.stats.em import em_mean_split, em_split_rows
from repro.stats.hypothesis import LikelihoodRatioResult, likelihood_ratio_test, lrt_screen_rows
from repro.stats.incremental import StreamingCusum, cusum_screen_batch
from repro.stats.mann_kendall import MannKendallResult, mann_kendall_test
from repro.stats.robust import mad, mad_threshold
from repro.stats.sax import SaxEncoding, sax_encode
from repro.stats.stl import STLResult, loess_smooth, stl_decompose
from repro.stats.theil_sen import TheilSenFit, theil_sen

__all__ = [
    "CusumResult",
    "EDivisiveResult",
    "LikelihoodRatioResult",
    "MannKendallResult",
    "STLResult",
    "SplitResult",
    "StreamingCusum",
    "SaxEncoding",
    "TheilSenFit",
    "acf",
    "aligned_pearson",
    "best_split_normal_loss",
    "cusum_changepoint",
    "cusum_screen_batch",
    "cusum_split_rows",
    "cusum_statistic",
    "detect_season_length",
    "e_divisive_test",
    "em_mean_split",
    "em_split_rows",
    "likelihood_ratio_test",
    "loess_smooth",
    "lrt_screen_rows",
    "mad",
    "mad_threshold",
    "mann_kendall_test",
    "normal_segment_loss",
    "pearson",
    "percentile",
    "sax_encode",
    "stl_decompose",
    "summarize",
    "theil_sen",
]
