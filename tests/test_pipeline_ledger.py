"""The run ledger as a property: ``result.trace`` *is* the ledger.

``DetectionPipeline`` keeps a single ledger per run — one
:class:`~repro.obs.spans.StageTally` per Table 3 row, and beside them
the run-level counts — and hands it back on ``PipelineResult.trace``;
``PipelineResult.funnel`` is read off the same tallies and
:func:`~repro.runtime.scheduler.publish` is the only thing that turns it
into registry counters.  These tests pin that spans, funnel and
published counters agree over every run shape the constructor can
produce: its three ablation switches, the incremental screen and the
quality gate.
"""

import itertools

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.pipeline import STAGES, DetectionPipeline
from repro.core.planned_changes import PlannedChange, PlannedChangeCorrelator
from repro.obs.spans import TraceStore
from repro.quality.gaps import QualityGate
from repro.runtime import ScanOutcome, publish
from repro.service.metrics import MetricsRegistry
from repro.tsdb import TimeSeriesDatabase, WindowSpec

from conftest import fill_series

INTERVAL = 60.0
N_POINTS = 150
NOW = N_POINTS * INTERVAL
#: The constructor's on/off switches, in the order of a test id's bits.
_SWITCHES = (
    "enable_went_away",
    "enable_seasonality",
    "enable_cost_shift",
    "incremental",
    "quality_gate",
)
_EVERYTHING_ON = (True,) * len(_SWITCHES)


def _config(long_term):
    return DetectionConfig(
        name="ledger",
        threshold=0.00005,
        rerun_interval=300.0,
        windows=WindowSpec(historic=4_500.0, analysis=3_000.0, extended=1_500.0),
        long_term=long_term,
    )


def _fleet():
    """One series per way out of the funnel, seeded."""
    rng = np.random.default_rng(23)

    def quiet():
        return rng.normal(0.001, 0.00002, N_POINTS)

    shifted = quiet()
    shifted[95:] += 0.0002          # persists: survives to the report
    twin = quiet()
    twin[95:] += 0.0002             # same change, sibling caller: deduplicated
    planned = quiet()
    planned[100:] += 0.0002          # explained by the planned change below
    transient = quiet()
    transient[104:120] += 0.0003     # recovers: went-away
    tiny = quiet()
    tiny[95:] += 0.00004            # real but below the threshold
    broken = quiet()
    broken[105:108] = float("nan")   # non-finite window: never scanned
    database = TimeSeriesDatabase()
    for name, values in (
        ("svc.ns::K::a.gcpu", shifted),
        ("svc.ns::K::b.gcpu", twin),
        ("maint.ns::M::c.gcpu", planned),
        ("svc.ns::K::d.gcpu", transient),
        ("svc.ns::K::e.gcpu", tiny),
        ("svc.ns::K::f.gcpu", quiet()),
        ("svc.ns::K::g.gcpu", broken),
    ):
        service, subroutine, _ = name.split(".")
        fill_series(
            database, name, values, INTERVAL,
            tags={"service": service, "subroutine": subroutine, "metric": "gcpu"},
        )
    return database


def _planned_changes():
    correlator = PlannedChangeCorrelator()
    correlator.register(
        PlannedChange("MAINT-1", start=100 * INTERVAL - 600.0, services={"maint"})
    )
    return correlator


def _run(database, switches, planned, long_term):
    flags = dict(zip(_SWITCHES, switches))
    flags["quality_gate"] = QualityGate() if flags["quality_gate"] else None
    pipeline = DetectionPipeline(
        _config(long_term),
        planned_changes=_planned_changes() if planned else None,
        **flags,
    )
    # Two scans: the second meets the merger's and PairwiseDedup's memory
    # of the first, and the incremental cache's hits.
    state = pipeline.new_state()
    runs = [pipeline.run(database, now, state=state) for now in (NOW, NOW + 300.0)]
    return state.cache, runs


def _published(results):
    """``(counters, histogram counts, trace store)`` after publishing."""
    metrics, store = MetricsRegistry(), TraceStore()
    publish(
        [ScanOutcome("ledger", result.now, result, result.trace.seconds) for result in results],
        metrics,
        store,
    )
    snapshot = metrics.snapshot()
    counts = {name: state["count"] for name, state in snapshot["histograms"].items()}
    return snapshot["counters"], counts, store


@pytest.fixture(scope="module")
def database():
    return _fleet()


def _stage_table_shapes():
    """(switch bits, planned, long_term) for every run the switches build.

    Short-term-only runs take the full product.  A long-term scan costs
    ten times a short one (a loess pass per series), so with
    ``long_term`` on the sweep keeps the corners and every one-switch-off
    neighbour rather than all 32 combinations.
    """
    everything = list(itertools.product([True, False], repeat=len(_SWITCHES)))
    near_corners = [bits for bits in everything if sum(bits) in (0, 4, 5)]
    for long_term, combos in ((False, everything), (True, near_corners)):
        for bits, planned in itertools.product(combos, [False, True]):
            yield pytest.param(
                bits, planned, long_term,
                id="{}-{}-{}".format(
                    "".join("1" if bit else "0" for bit in bits),
                    "planned" if planned else "unplanned",
                    "long" if long_term else "short",
                ),
            )


@pytest.mark.parametrize("enabled, planned, long_term", _stage_table_shapes())
def test_funnel_is_the_spans_outputs(database, enabled, planned, long_term):
    cache, results = _run(database, enabled, planned, long_term)
    for result in results:
        for stage in STAGES:
            span = result.trace.span(stage)
            assert result.funnel.counts[stage] == span.outputs, stage
            assert span.outputs + sum(span.drops.values()) == span.inputs, stage
        if not long_term:
            assert result.trace.telescopes()
    # What gets published is the same ledger read once more.
    counters, observed, store = _published(results)
    assert store.runs() == [result.trace for result in results]
    scanned = [result.trace.span("change_points") for result in results]
    # Without the screen every series is scanned in full, every run.
    misses = cache.misses if cache else len(list(database)) * len(results)
    # The scan and cache-decision counts are their owners' (the scheduler,
    # the cache), never the ledger's.
    assert counters == {
        "scheduler.regressions_reported": sum(len(r.reported) for r in results),
        "pipeline.runs": len(results),
        "pipeline.candidates": sum(len(r.all_candidates) for r in results),
        "pipeline.reported": sum(len(r.reported) for r in results),
        "pipeline.quality.non_finite_skips": sum(
            s.drops.get("non_finite_window", 0) for s in scanned
        ),
        # Every miss is a row of the matrix pass unless its window was bad.
        "pipeline.full_scan.rows": misses
        - counters["pipeline.quality.non_finite_skips"],
        "pipeline.full_scan.exact_lrt": counters["pipeline.full_scan.exact_lrt"],
    }
    assert 0 < counters["pipeline.full_scan.exact_lrt"] <= counters["pipeline.full_scan.rows"]
    hits = cache.hits if cache else 0
    assert hits == sum(s.drops.get("cache_hit", 0) for s in scanned)
    if not long_term:  # with it on, a series is observed once per path
        assert hits + misses == sum(s.inputs for s in scanned)
    assert set(observed.values()) == {len(results)}
    assert set(observed) == {"scheduler.scan_seconds", "pipeline.run_seconds"} | {
        f"pipeline.stage.{block}_seconds"
        for block in ("detect", "som_dedup", "cost_shift", "pairwise_dedup", "root_cause")
    }


def test_fleet_exercises_every_way_out(database):
    """The fleet above is only a property test if the stages all bite."""
    _, (first, second) = _run(database, _EVERYTHING_ON, planned=True, long_term=False)
    drops = {}
    for result in (first, second):
        for span in result.trace.spans:
            for reason, count in span.drops.items():
                drops[reason] = drops.get(reason, 0) + count
    for reason in (
        "non_finite_window", "no_change_point", "cache_hit", "went_away",
        "below_threshold", "planned_change", "same_regression",
    ):
        assert drops.get(reason), (reason, drops)
    assert first.reported and not second.reported


@pytest.mark.parametrize("long_term", [False, True], ids=["short", "long"])
def test_bad_window_is_skipped_once_whichever_paths_run(long_term):
    """One NaN-bearing window is one skip and one drop: the window is
    cut and gated once per series, not once per detection path."""
    values = np.random.default_rng(5).normal(0.001, 0.00002, N_POINTS)
    values[105:108] = float("nan")
    database = TimeSeriesDatabase()
    fill_series(database, "svc.burst.gcpu", values, INTERVAL, tags={"metric": "gcpu"})
    trace = DetectionPipeline(_config(long_term)).run(database, NOW).trace
    assert trace.counts["pipeline.quality.non_finite_skips"] == 1
    span = trace.span("change_points")
    assert (span.inputs, span.drops) == (1, {"non_finite_window": 1})
