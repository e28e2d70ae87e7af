"""Per-sink fault isolation in report delivery (the one ``deliver``).

The regression these tests pin down: sink delivery used to run inline
with no isolation, so one raising sink aborted the delivery loop —
losing the report for every later sink — and a sufficiently broken sink
could fail the shard advance itself.  Delivery must be best-effort per
sink: a bad sink is counted and logged, every other sink still gets the
report, and the advance returns normally.
"""

import numpy as np

from repro.config import DetectionConfig
from repro.reporting import build_report
from repro.runtime import CollectingSink, deliver
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.tsdb import WindowSpec

from test_reporting import make_regression

N_SERIES = 8
INTERVAL = 60.0
TICKS = 1000


class RaisingSink:
    """Fails every delivery; optionally also fails close()."""

    def __init__(self, fail_close=False):
        self.fail_close = fail_close
        self.attempts = 0
        self.closed = False

    def deliver(self, report):
        self.attempts += 1
        raise RuntimeError("sink exploded")

    def close(self):
        self.closed = True
        if self.fail_close:
            raise RuntimeError("close exploded")


def scan_config():
    return DetectionConfig(
        name="sinks-test", threshold=0.00005, rerun_interval=6_000.0,
        windows=WindowSpec(36_000.0, 12_000.0, 6_000.0), long_term=False,
    )


def run_service(sinks):
    """One deterministic run with a planted regression; returns
    (delivered report keys, the service's final metrics counters)."""
    service = StreamingDetectionService(
        n_shards=2, sinks=sinks, queue_capacity=1 << 16,
        backpressure=BackpressurePolicy.BLOCK, batch_size=1024,
    )
    service.register_monitor(
        "gcpu", scan_config(), series_filter={"metric": "gcpu"}
    )
    rng = np.random.default_rng(17)
    for index in range(N_SERIES):
        values = rng.normal(0.001, 0.00002, TICKS)
        if index == 2:
            values[700:] += 0.0004  # the planted regression
        service.ingest_many(
            [
                Sample(f"svc.sub{index}.gcpu", tick * INTERVAL,
                       float(values[tick]), {"metric": "gcpu"})
                for tick in range(TICKS)
            ]
        )
    reports = service.advance_to(TICKS * INTERVAL)
    counters = service.metrics.snapshot()["counters"]
    service.close()
    keys = [(r.metric_id, r.change_time) for r in reports]
    return keys, counters


class TestServiceSinkIsolation:
    def test_raising_sink_does_not_change_delivery(self):
        """The failing-sink run delivers the same report set."""
        baseline_keys, _ = run_service([CollectingSink()])
        assert baseline_keys  # the planted regression is caught

        collecting = CollectingSink()
        raising = RaisingSink()
        keys, counters = run_service([raising, collecting])

        assert keys == baseline_keys
        assert [(r.metric_id, r.change_time) for r in collecting.reports] \
            == baseline_keys
        assert raising.attempts == len(baseline_keys)
        assert counters["service.sinks.errors"] == len(baseline_keys)
        assert counters["service.sinks.delivered"] == len(baseline_keys)

    def test_sink_order_does_not_matter(self):
        collecting = CollectingSink()
        keys, counters = run_service([collecting, RaisingSink()])
        assert [(r.metric_id, r.change_time) for r in collecting.reports] \
            == keys
        assert counters["service.sinks.errors"] >= 1

    def test_sink_error_recorded_on_event_log(self):
        service = StreamingDetectionService(
            n_shards=1, sinks=[RaisingSink()], queue_capacity=64,
            backpressure=BackpressurePolicy.BLOCK, batch_size=8,
        )
        deliver(build_report(make_regression()), service.sinks, service._sink_failed)
        events = [e for e in service.events.events() if e.kind == "sink_error"]
        assert len(events) == 1
        assert events[0].fields["sink"] == "RaisingSink"
        counters = service.metrics.snapshot()["counters"]
        assert counters["service.sinks.errors"] == 1
        service.close()

    def test_close_isolates_sink_failures(self):
        bad = RaisingSink(fail_close=True)
        good = RaisingSink(fail_close=False)
        service = StreamingDetectionService(
            n_shards=1, sinks=[bad, good], queue_capacity=64,
            backpressure=BackpressurePolicy.BLOCK, batch_size=8,
        )
        service.close()  # must not raise
        assert bad.closed and good.closed


class TestDeliverIsolation:
    """``repro.runtime.sinks.deliver`` is the only caller of a sink's
    ``deliver`` in ``src/``: the service and bare-scheduler users both
    fan out through it, so its isolation is everybody's."""

    def test_raising_sink_does_not_starve_later_sinks(self):
        raising, failures = RaisingSink(), []
        later = [CollectingSink(), CollectingSink()]
        report = build_report(make_regression())
        taken = deliver(
            report,
            [raising, *later],
            on_error=lambda sink, failed, error: failures.append((sink, failed, str(error))),
        )
        assert raising.attempts == 1
        # The sinks after the raising one still received the report.
        assert taken == 2
        assert [sink.reports for sink in later] == [[report], [report]]
        assert failures == [(raising, report, "sink exploded")]

    def test_without_a_callback_a_failure_is_only_logged(self):
        good = CollectingSink()
        assert deliver(build_report(make_regression()), [RaisingSink(), good]) == 1
        assert len(good) == 1
