"""Ablation — the two-step deduplication design (§5.5).

The paper pairs a fast O(n) SOM pass with a thorough O(n²) pairwise pass
and sets the SOM grid by the robust rule L = ceil(n^(1/4)).  This bench
verifies the design choices:

1. *Scalability*: SOMDedup's runtime grows far slower with n than
   PairwiseDedup's pairwise comparisons.
2. *Effectiveness*: on correlated regression families, SOMDedup alone
   collapses most duplicates (paper: "often reducing regressions by two
   orders of magnitude"), and the pipeline without SOMDedup leans
   entirely on the slow pass.
3. *Grid rule*: the n^(1/4) rule clusters as well as a hand-tuned grid.
"""

import time

import numpy as np
import pytest

from _harness import ANALYSIS_POINTS, EXTENDED_POINTS, HISTORIC_POINTS, emit
from repro.core.dedup_pairwise import PairwiseDedup
from repro.core.dedup_som import SOMDedup
from repro.core.types import MetricContext, MonitorState, Regression, RegressionKind, ScanContext
from repro.som import som_cluster, som_grid_size
from repro.tsdb import TimeSeries, WindowSpec

N_POINTS = HISTORIC_POINTS + ANALYSIS_POINTS + EXTENDED_POINTS


def make_family(rng, n_members: int, n_families: int):
    """n_families correlated families of n_members regressions each."""
    regressions = []
    for family in range(n_families):
        shared = rng.normal(0, 0.00002, N_POINTS)
        change_at = HISTORIC_POINTS + 40 + 10 * family
        for member in range(n_members):
            values = 0.001 * (family + 1) + shared + rng.normal(0, 2e-6, N_POINTS)
            values[change_at:] += 0.0002
            series = TimeSeries(f"svc.fam{family}::caller{member}.gcpu")
            for i, value in enumerate(values):
                series.append(float(i), float(value))
            view = WindowSpec(
                HISTORIC_POINTS, ANALYSIS_POINTS, EXTENDED_POINTS
            ).view(series, now=float(N_POINTS))
            regressions.append(
                Regression(
                    context=MetricContext(
                        metric_id=series.name,
                        service="svc",
                        metric_name="gcpu",
                        subroutine=f"fam{family}::caller{member}",
                    ),
                    kind=RegressionKind.SHORT_TERM,
                    change_index=change_at - HISTORIC_POINTS,
                    change_time=float(change_at),
                    mean_before=0.001 * (family + 1),
                    mean_after=0.001 * (family + 1) + 0.0002,
                    window=view,
                )
            )
    return regressions


def test_som_collapses_families(rng):
    regressions = make_family(rng, n_members=10, n_families=4)
    groups = SOMDedup().deduplicate(regressions, ScanContext(), MonitorState())
    # 40 regressions -> close to 4 groups (one per family).
    assert len(groups) <= 10
    representatives = sum(1 for g in groups if g.representative)
    assert representatives == len(groups)
    emit(
        "Ablation — SOMDedup effectiveness",
        [
            f"40 correlated regressions (4 families x 10 callers) -> "
            f"{len(groups)} groups after SOMDedup alone",
        ],
    )


def test_scalability_som_vs_pairwise(rng):
    sizes = (20, 60)
    som_times, pairwise_times = [], []
    for n in sizes:
        regressions = make_family(rng, n_members=n // 4, n_families=4)
        start = time.perf_counter()
        SOMDedup().deduplicate(regressions, ScanContext(), MonitorState())
        som_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        dedup, context, state = PairwiseDedup(), ScanContext(), MonitorState()
        for regression in regressions:
            dedup.process([regression], context, state)
        pairwise_times.append(time.perf_counter() - start)

    som_growth = som_times[1] / max(som_times[0], 1e-9)
    pairwise_growth = pairwise_times[1] / max(pairwise_times[0], 1e-9)
    emit(
        "Ablation — dedup scalability",
        [
            f"n=20: SOM {som_times[0] * 1000:.1f} ms, pairwise {pairwise_times[0] * 1000:.1f} ms",
            f"n=60: SOM {som_times[1] * 1000:.1f} ms, pairwise {pairwise_times[1] * 1000:.1f} ms",
            f"runtime growth SOM x{som_growth:.1f} vs pairwise x{pairwise_growth:.1f} (3x items)",
        ],
    )
    # Pairwise grows super-linearly; SOM's growth is much gentler.
    assert pairwise_growth > som_growth


def test_grid_rule_competitive(rng):
    regressions = make_family(rng, n_members=8, n_families=4)
    dedup_rule = SOMDedup()
    context = ScanContext()
    groups_rule = dedup_rule.deduplicate(list(regressions), context, MonitorState())

    features = dedup_rule._feature_matrix(list(regressions), context.change_log)
    rule_clusters = som_cluster(features, grid_size=som_grid_size(len(regressions)))
    oversized = som_cluster(features, grid_size=8)  # 64 units for 32 items

    # The paper's rule yields a sane cluster count; a hugely oversized
    # grid fragments (more clusters than families warrant).
    assert len(rule_clusters) <= len(oversized) + 1
    assert 1 <= len(groups_rule) <= 12


def test_dedup_benchmark(benchmark, rng):
    regressions = make_family(rng, n_members=6, n_families=3)
    groups = benchmark.pedantic(
        SOMDedup().deduplicate, args=(regressions, ScanContext(), MonitorState()),
        rounds=3, iterations=1,
    )
    assert groups
