"""The publish seam: a scan returns its ledger, one function publishes it.

``DetectionPipeline.run`` hands its spans, counts and timings back on
``PipelineResult.trace``; ``repro.runtime.scheduler.publish`` is the one
place they reach a metrics registry and a trace store, called from
``StreamingDetectionService._deliver`` for serial and parallel advances
alike.  So a ``workers=2`` service must end with the registry and trace
store of a ``workers=1`` one, and ``/metrics`` must read as it did when
the scan stack pushed its numbers itself: the golden beside this test
was generated at the commit before that refactor.

Regenerate (only when ``/metrics`` is *meant* to change)::

    PYTHONPATH=src python tests/test_publish_seam.py --write
"""

import json
import os
import sys

import numpy as np
import pytest

from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.service import views

import test_report_fence as fence

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "metrics_golden.json")
TAGS = {"service": "dirt", "metric": "gcpu"}
N_POINTS = fence.PRELOAD_POINTS + fence.ROUNDS * fence.POINTS_PER_ROUND

#: What a worker pool adds to the registry and nothing else does.
PARALLEL_ONLY = ("advance.", "service.parallel_advances")


def _dirt(start, stop):
    """Three series the quality layer has to step around: one that
    stopped reporting (stale), one with a hole in its baseline (low
    coverage), one that emits a NaN burst (quarantined at the door)."""
    rng = np.random.default_rng([21, start])
    samples = []
    for k in range(start, stop):
        value = float(rng.normal(1e-3, 2e-5))
        if k < 100:
            samples.append(Sample("dirt.gone.gcpu", k * fence.INTERVAL, value, TAGS))
        if not 150 <= k < 430:
            samples.append(Sample("dirt.holed.gcpu", k * fence.INTERVAL, value, TAGS))
        burst = float("nan") if 500 <= k < 504 else value
        samples.append(Sample("dirt.burst.gcpu", k * fence.INTERVAL, burst, TAGS))
    return samples


def run_drill(workers):
    """The fence fleet plus dirt; returns the service (closed) and the
    text ``/metrics`` served last."""
    names, tags, values = fence._fleet()
    service = StreamingDetectionService(
        n_shards=2, workers=workers, sinks=[CollectingSink()],
        queue_capacity=1 << 16, backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor("fence", fence.CONFIG, series_filter={"metric": "gcpu"})
    start = 0
    for stop in range(fence.PRELOAD_POINTS, N_POINTS + 1, fence.POINTS_PER_ROUND):
        service.ingest_many(fence._samples(names, tags, values, start, stop))
        service.ingest_many(_dirt(start, stop))
        service.advance_to(stop * fence.INTERVAL)
        start = stop
    exposition = views.metrics(service)[1]
    service.close()
    return service, exposition


def _ledger(service):
    """Everything ``/metrics`` serves that does not read a clock's value."""
    snapshot = service.stats().metrics
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histogram_counts": {
            name: state["count"] for name, state in snapshot["histograms"].items()
        },
    }


def _names(exposition):
    return sorted(
        line.split()[2] for line in exposition.splitlines() if line.startswith("# TYPE")
    )


@pytest.fixture(scope="module")
def serial():
    return run_drill(workers=1)


@pytest.fixture(scope="module")
def parallel():
    return run_drill(workers=2)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as source:
        return json.load(source)


class TestMetricsAreWhatTheyWere:
    def test_metric_names_equal_the_parent_commits(self, serial, golden):
        assert _names(serial[1]) == golden["names"]

    def test_counters_and_histogram_counts_equal_the_parent_commits(self, serial, golden):
        assert _ledger(serial[0]) == golden["ledger"]

    def test_the_drill_reaches_every_published_family(self, golden):
        """A golden that misses a family guards nothing."""
        names = golden["names"]
        for family in (
            "pipeline_runs", "pipeline_incremental_hits", "pipeline_incremental_misses",
            "pipeline_quality_stale_evictions", "pipeline_quality_low_coverage_skips",
            "pipeline_run_seconds", "pipeline_stage_detect_seconds",
            "pipeline_stage_root_cause_seconds", "scheduler_scans",
            "scheduler_scan_seconds", "service_sinks_delivered", "quality_quarantined",
        ):
            assert family in names, family


class TestOnePublishServesBothPaths:
    def test_registries_agree_but_for_what_a_pool_adds(self, serial, parallel):
        one, two = _ledger(serial[0]), _ledger(parallel[0])
        assert two["gauges"].pop("service.workers") == 2.0
        assert one["gauges"].pop("service.workers") == 1.0
        for section in two.values():
            for name in [n for n in section if n.startswith(PARALLEL_ONLY)]:
                del section[name]
        assert two == one

    def test_trace_stores_agree_run_for_run(self, serial, parallel):
        def contents(service):
            return [
                (
                    run.monitor, run.now, run.counts, sorted(run.timings),
                    [(s.stage, s.inputs, s.outputs, s.drops) for s in run.spans],
                )
                for run in service.traces.runs()
            ]

        assert contents(parallel[0]) == contents(serial[0])
        assert len(serial[0].traces) == serial[0].stats().scans > 0


if __name__ == "__main__":
    if "--write" not in sys.argv:
        raise SystemExit(__doc__)
    drilled, text = run_drill(workers=1)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as sink:
        json.dump({"names": _names(text), "ledger": _ledger(drilled)}, sink,
                  indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {GOLDEN}: {len(_names(text))} metric names")
