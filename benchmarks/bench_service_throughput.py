"""Streaming-service ingest throughput and scan latency across shards.

FBDetect's deployment (§5.1) shards the series space so each scanner
works on a bounded slice.  This bench reproduces the two laptop-scale
consequences the service is built around:

- **Ingest throughput under bursty load.**  Every shard owns a bounded
  queue; when a burst exceeds one queue's capacity, extra shards are the
  only thing that turns offered samples into durably ingested ones.
  Throughput here is *goodput* — samples accepted and flushed into a
  TSDB per second (REJECT policy, so refused samples are explicit).
  The acceptance bar: multi-shard goodput >= 2x single-shard.
- **Scan latency.**  Each shard's detector scans only the shard-local
  series, so per-scan latency drops as the series space spreads across
  shards (while total scan work stays roughly constant).
- **Parallel scan goodput.**  With ``workers > 1`` shard advances run in
  worker processes; on multi-core hardware the scan-heavy phase should
  scale (the >= 2.5x @ 4 workers bar is asserted only when the machine
  actually has >= 4 CPUs — correctness is asserted everywhere).
- **Incremental re-scan cost.**  Quiet series re-scanned on the rerun
  cadence should hit the incremental cache and skip the O(window) scan.
- **Admission overhead.**  Data-quality validators run on every offer;
  clean in-order frames must ride the array-comparison fast path, so
  goodput with admission on stays within a few percent of admission off.
- **Frame size.**  The unit of ingest is a per-series frame; the scalar
  ``ingest()`` is a one-row frame.  The cost per sample of both is put
  on record (25-row frames, the e2e benchmark's round, vs one-row).
"""

import os
import sys
import time
from dataclasses import replace

import numpy as np

from _harness import emit
from repro.config import DetectionConfig
from repro.quality import QualityConfig
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.tsdb import WindowSpec

N_SERIES = 64
INTERVAL = 60.0
SERIES = [f"svc.sub{i}.gcpu" for i in range(N_SERIES)]

# Burst phase: each burst offers far more than one shard's queue holds.
CAPACITY = 64          # per-shard queue bound
TICKS_PER_BURST = 16   # 16 ticks x 64 series = 1024 samples per burst
N_BURSTS = 40

# Scan phase: enough history for one full detection window per series.
HIST_TICKS = 900       # = windows.total / INTERVAL


def burst_stream():
    bursts = []
    tick = 0
    for _ in range(N_BURSTS):
        burst = []
        for _ in range(TICKS_PER_BURST):
            timestamp = tick * INTERVAL
            burst.extend(Sample(name, timestamp, 0.001) for name in SERIES)
            tick += 1
        bursts.append(burst)
    return bursts


def run_burst_ingest(n_shards, bursts, quality="on", clock=time.perf_counter):
    service = StreamingDetectionService(
        n_shards=n_shards,
        queue_capacity=CAPACITY,
        backpressure=BackpressurePolicy.REJECT,
        batch_size=CAPACITY,
        quality=QualityConfig() if quality == "on" else None,
    )
    started = clock()
    for burst in bursts:
        service.ingest_many(burst)  # one 16-row frame per series
        service.flush()
    elapsed = clock() - started
    return service.stats(), elapsed


def best_goodput_by_quality(bursts, reps):
    """Best goodput, per CPU-second, with admission ``disabled`` and
    ``validated``.

    Admission overhead is a CPU cost, and on a shared runner wall time
    mostly measures who else was running: the runs are timed on the
    process CPU clock, and the two modes alternate rep by rep so a busy
    spell on the host lands on both sides of the ratio.
    """
    best = {"disabled": 0.0, "validated": 0.0}
    for _ in range(reps):
        for mode in best:
            stats, elapsed = run_burst_ingest(
                4, bursts, quality="on" if mode == "validated" else None,
                clock=time.process_time,
            )
            assert stats.flushed == stats.accepted
            best[mode] = max(best[mode], stats.accepted / elapsed)
    return best


def test_multi_shard_throughput_scales(capsys):
    bursts = burst_stream()
    rows = ["shards  offered  accepted  rejected  goodput(kS/s)  speedup"]
    throughput = {}
    for n_shards in (1, 4, 8):
        stats, elapsed = run_burst_ingest(n_shards, bursts)
        goodput = stats.accepted / elapsed
        throughput[n_shards] = goodput
        rows.append(
            f"{n_shards:6d}  {stats.offered:7d}  {stats.accepted:8d}  "
            f"{stats.rejected:8d}  {goodput / 1e3:13.1f}  "
            f"{goodput / throughput[1]:6.1f}x"
        )
        assert stats.flushed == stats.accepted  # REJECT loses nothing accepted

    emit("Service ingest throughput (bursty load, bounded shard queues)", rows)
    assert throughput[4] >= 2.0 * throughput[1]
    assert throughput[8] >= 2.0 * throughput[1]


def test_admission_overhead_within_bounds(capsys):
    """Data-quality admission on the ingest hot path must stay cheap.

    Same burst workload with the validators on (the service default)
    and off (``quality=None``).  The stream is clean and in-order, so
    every frame takes the admission fast path — array comparisons — and
    goodput should stay within the <= 5% acceptance target (reported in
    the table; three of four frames here are refused by the full queue
    before admission or the TSDB see them, so the ratio is taken against
    very little other work).  The assert uses a loose 25% bound so
    scheduler jitter on busy CI machines never flakes the gate; the
    precise number is tracked by check_bench_regression.py history, not
    this assert.
    """
    bursts = burst_stream()
    run_burst_ingest(4, bursts)  # warm-up, untimed
    rows = ["mode       goodput(kS/CPU-s)"]
    goodput = best_goodput_by_quality(bursts, reps=7)
    for mode, best in goodput.items():
        rows.append(f"{mode:9s}  {best / 1e3:13.1f}")

    overhead = goodput["disabled"] / goodput["validated"] - 1.0
    rows.append(f"admission overhead: {overhead:+.1%} (target <= 5%)")
    emit("Data-quality admission overhead (clean samples, fast path)", rows)
    assert goodput["validated"] >= goodput["disabled"] / 1.25


FRAME_ROWS = 25        # the e2e benchmark's points per series per round
FRAME_ROUNDS = 20


def test_frame_size_cost(capsys):
    """ns/sample through route + queue + admission + TSDB append, for the
    same clean stream offered as 25-row frames and as one-row frames."""
    rounds = [
        [
            Sample(name, (r * FRAME_ROWS + k) * INTERVAL, 0.001, {"metric": "gcpu"})
            for k in range(FRAME_ROWS)
            for name in SERIES
        ]
        for r in range(FRAME_ROUNDS)
    ]
    n_samples = FRAME_ROUNDS * FRAME_ROWS * N_SERIES

    def feed_frames(service, batch):
        return service.ingest_many(batch)

    def feed_rows(service, batch):
        return sum(service.ingest_sample(sample) for sample in batch)

    rows = ["frame rows  samples  ns/sample"]
    cost = {}
    for label, feed in ((FRAME_ROWS, feed_frames), (1, feed_rows)):
        best = float("inf")
        for _ in range(3):  # best-of-3: the path's cost, not scheduler jitter
            service = StreamingDetectionService(
                n_shards=4, queue_capacity=1 << 20,
                backpressure=BackpressurePolicy.BLOCK, batch_size=4_096,
            )
            started = time.perf_counter()
            accepted = sum(feed(service, batch) for batch in rounds)
            flushed = service.flush()
            best = min(best, time.perf_counter() - started)
            assert accepted == flushed == n_samples
        cost[label] = best / n_samples * 1e9
        rows.append(f"{label:10d}  {n_samples:7d}  {cost[label]:9.0f}")
    rows.append(f"one-row frames cost {cost[1] / cost[FRAME_ROWS]:.1f}x per sample")
    emit("Ingest cost by frame size (clean in-order stream, 4 shards)", rows)
    assert cost[FRAME_ROWS] < cost[1]


def scan_config():
    return DetectionConfig(
        name="bench-service",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


def test_scan_latency_drops_per_shard(capsys):
    rng = np.random.default_rng(5)
    values = {name: rng.normal(0.001, 0.00002, HIST_TICKS) for name in SERIES}

    rows = ["shards  scans  p50(ms)  p99(ms)  mean(ms)"]
    mean_latency = {}
    for n_shards in (1, 4, 8):
        service = StreamingDetectionService(
            n_shards=n_shards,
            queue_capacity=1 << 20,  # uncapped: latency, not backpressure
            backpressure=BackpressurePolicy.BLOCK,
            batch_size=4_096,
        )
        service.register_monitor("gcpu", scan_config(), series_filter={"metric": "gcpu"})
        for name in SERIES:
            service.ingest_many(
                [
                    Sample(name, tick * INTERVAL, float(values[name][tick]),
                           {"metric": "gcpu"})
                    for tick in range(HIST_TICKS)
                ]
            )
        service.advance_to(HIST_TICKS * INTERVAL)

        histogram = service.metrics.histogram("scheduler.scan_seconds")
        mean_latency[n_shards] = histogram.mean
        rows.append(
            f"{n_shards:6d}  {histogram.count:5d}  "
            f"{histogram.quantile(0.5) * 1e3:7.2f}  "
            f"{histogram.quantile(0.99) * 1e3:7.2f}  "
            f"{histogram.mean * 1e3:8.2f}"
        )

    emit("Service scan latency (per-scan work shrinks with the shard slice)", rows)
    # A shard scans only its slice of the series space.
    assert mean_latency[8] <= mean_latency[1]


# -- parallel workers + incremental cache ---------------------------------

SCAN_ROUNDS = 4          # rerun-cadence advances after the warm-up scan
RERUN = 6_000.0          # matches scan_config().rerun_interval

# The parallel bench needs scan compute to dominate the fixed per-round
# costs (state pickling, IPC), so it scans a wider series space on a
# tight rerun cadence (several scheduler scans per advance, same state
# volume per round).
N_PAR_SERIES = 256
PAR_SERIES = [f"svc.sub{i}.gcpu" for i in range(N_PAR_SERIES)]
PAR_RERUN = 1_500.0


def par_scan_config():
    return replace(scan_config(), rerun_interval=PAR_RERUN)


def _scan_values(seed=7, series=PAR_SERIES):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(0.001, 0.00002, HIST_TICKS) for name in series}


def _build_scan_service(workers, incremental, config=None, shadow=None):
    service = StreamingDetectionService(
        n_shards=8,
        workers=workers,
        queue_capacity=1 << 20,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=4_096,
    )
    service.register_monitor(
        "gcpu", config if config is not None else scan_config(),
        series_filter={"metric": "gcpu"},
        incremental=incremental,
        shadow=shadow,
    )
    return service


def run_parallel_scans(workers, values, incremental=False):
    """Ingest history once, then time ``SCAN_ROUNDS`` rerun advances.

    Returns ``(scans, elapsed, reports, hit_counters)`` where ``scans``
    counts scheduler scans across all rounds (the goodput numerator) and
    ``reports`` is the delivered report list (the cross-mode equivalence
    check).
    """
    service = _build_scan_service(workers, incremental, config=par_scan_config())
    for name, series_values in values.items():
        service.ingest_many(
            [
                Sample(name, tick * INTERVAL, float(series_values[tick]),
                       {"metric": "gcpu"})
                for tick in range(HIST_TICKS)
            ]
        )
    service.flush()  # untimed: the subject is scan goodput, not ingest
    reports = []
    started = time.perf_counter()
    for round_index in range(SCAN_ROUNDS):
        target = HIST_TICKS * INTERVAL + round_index * RERUN
        reports.extend(service.advance_to(target))
    elapsed = time.perf_counter() - started
    scans = service.metrics.histogram("scheduler.scan_seconds").count
    snapshot = service.metrics.snapshot()
    hits = snapshot["counters"].get("pipeline.incremental.hits", 0.0)
    misses = snapshot["counters"].get("pipeline.incremental.misses", 0.0)
    service.close()
    return scans, elapsed, reports, (hits, misses)


def test_parallel_workers_speedup(capsys):
    values = _scan_values()
    rows = ["workers  scans  elapsed(s)  goodput(scans/s)  speedup"]
    goodput = {}
    scans_by_workers = {}
    for workers in (1, 4):
        scans, elapsed, _, _ = run_parallel_scans(workers, values)
        goodput[workers] = scans / elapsed
        scans_by_workers[workers] = scans
        rows.append(
            f"{workers:7d}  {scans:5d}  {elapsed:10.2f}  "
            f"{goodput[workers]:16.1f}  {goodput[workers] / goodput[1]:6.1f}x"
        )
    emit("Service parallel scan goodput (process-pool shard advances)", rows)

    # Same scan schedule regardless of execution mode.
    assert scans_by_workers[4] == scans_by_workers[1]
    # The scaling bar is a statement about multi-core hardware (CI
    # runners); on fewer cores the parallel path can only prove
    # correctness, not speedup.
    if (os.cpu_count() or 1) >= 4:
        assert goodput[4] >= 2.5 * goodput[1]


def test_incremental_cache_cuts_rescan_cost(capsys):
    values = _scan_values(series=SERIES)
    rows = ["mode         scans  hits  elapsed(s)"]
    elapsed_by_mode = {}
    hit_rate = 0.0
    for incremental in (False, True):
        service = _build_scan_service(workers=1, incremental=incremental)
        for name, series_values in values.items():
            service.ingest_many(
                [
                    Sample(name, tick * INTERVAL, float(series_values[tick]),
                           {"metric": "gcpu"})
                    for tick in range(HIST_TICKS)
                ]
            )
        # Warm-up: the first scan anchors every series.
        service.advance_to(HIST_TICKS * INTERVAL)
        started = time.perf_counter()
        for round_index in range(1, SCAN_ROUNDS + 1):
            service.advance_to(HIST_TICKS * INTERVAL + round_index * RERUN)
        elapsed = time.perf_counter() - started
        snapshot = service.metrics.snapshot()
        hits = snapshot["counters"].get("pipeline.incremental.hits", 0.0)
        misses = snapshot["counters"].get("pipeline.incremental.misses", 0.0)
        scans = service.metrics.histogram("scheduler.scan_seconds").count
        mode = "incremental" if incremental else "full"
        elapsed_by_mode[mode] = elapsed
        if incremental:
            hit_rate = hits / (hits + misses) if hits + misses else 0.0
        rows.append(f"{mode:11s}  {scans:5d}  {hits:4.0f}  {elapsed:10.3f}")
        service.close()

    rows.append(f"hit rate (incremental): {hit_rate:.1%}")
    emit("Incremental scan cache (quiet-series rescans skip the window)", rows)
    assert hit_rate >= 0.3
    assert elapsed_by_mode["incremental"] < elapsed_by_mode["full"]


def test_observability_overhead_within_bounds(capsys):
    """Span tracing on the scan hot path must stay in the noise.

    Same workload, same schedule, traced vs. untraced pipelines; the
    acceptance target is <= 5% overhead (reported in the table), with a
    loose 25% assertion bound so scheduler jitter on busy CI machines
    never flakes the gate — the precise number is tracked by
    check_bench_regression.py history, not this assert.
    """
    values = _scan_values(series=SERIES)
    rows = ["mode      scans  traces  elapsed(s)"]
    elapsed_by_mode = {}
    for traced in (False, True):
        service = _build_scan_service(workers=1, incremental=True)
        if not traced:
            # register_monitor already ran inside the builder; detach the
            # span recorder from every pipeline for the untraced run.
            for shard in service._shards.values():
                shard.bind(service.metrics, None, None)
        for name, series_values in values.items():
            service.ingest_many(
                [
                    Sample(name, tick * INTERVAL, float(series_values[tick]),
                           {"metric": "gcpu"})
                    for tick in range(HIST_TICKS)
                ]
            )
        service.flush()
        started = time.perf_counter()
        for round_index in range(SCAN_ROUNDS):
            service.advance_to(HIST_TICKS * INTERVAL + round_index * RERUN)
        elapsed = time.perf_counter() - started
        mode = "traced" if traced else "plain"
        elapsed_by_mode[mode] = elapsed
        scans = service.metrics.histogram("scheduler.scan_seconds").count
        traces = len(service.traces)
        if traced:
            assert traces == scans  # one RunTrace per scan, none lost
        else:
            assert traces == 0
        rows.append(f"{mode:8s}  {scans:5d}  {traces:6d}  {elapsed:10.3f}")
        service.close()

    overhead = elapsed_by_mode["traced"] / elapsed_by_mode["plain"] - 1.0
    rows.append(f"span-tracing overhead: {overhead:+.1%} (target <= 5%)")
    emit("Observability overhead (funnel spans on the scan hot path)", rows)
    assert elapsed_by_mode["traced"] <= elapsed_by_mode["plain"] * 1.25


def test_shadow_detector_overhead_within_bounds(capsys):
    """One shadow challenger must not dent burst-ingest goodput.

    The full service workload — bursty ingest with the gcpu monitor
    scanning on its rerun cadence between bursts — with a ``mad``
    challenger registered vs. none.  Challengers score only full
    (cache-miss) scans and never touch ingest, verdicts, or delivery,
    so goodput should stay within the <= 5% acceptance target
    (reported in the table).  The assert uses a loose 25% bound so
    scheduler jitter on busy CI machines never flakes the gate; the
    precise number is tracked by check_bench_regression.py history.
    """
    values = _scan_values(series=SERIES)
    history = [
        Sample(name, tick * INTERVAL, float(values[name][tick]), {"metric": "gcpu"})
        for tick in range(HIST_TICKS)
        for name in SERIES
    ]
    burst_base = HIST_TICKS * INTERVAL
    rng = np.random.default_rng(11)
    bursts = []
    tick = HIST_TICKS
    for _ in range(N_BURSTS):
        # Quiet continuations of each series: the steady state where
        # rescans ride the incremental cache and full scans are rare.
        burst = [
            Sample(name, t * INTERVAL, float(rng.normal(0.001, 0.00002)),
                   {"metric": "gcpu"})
            for t in range(tick, tick + TICKS_PER_BURST)
            for name in SERIES
        ]
        tick += TICKS_PER_BURST
        bursts.append(burst)

    rows = ["mode    accepted  challenger_scans  goodput(kS/s)"]
    goodput = {}
    reports_by_mode = {}
    for mode in ("plain", "shadow"):
        best = 0.0
        for _ in range(3):  # best-of-3: goodput, not scheduler jitter
            service = _build_scan_service(
                workers=1, incremental=True,
                shadow=["mad"] if mode == "shadow" else None,
            )
            service.ingest_many(history)
            service.flush()
            service.advance_to(burst_base)  # warm-up scan anchors series
            reports = []
            started = time.perf_counter()
            for burst in bursts:
                for sample in burst:
                    service.ingest_sample(sample)
                service.flush()
                reports.extend(service.advance_to(burst[-1].timestamp + INTERVAL))
            elapsed = time.perf_counter() - started
            accepted = service.stats().accepted
            best = max(best, (accepted - len(history)) / elapsed)
            reports_by_mode[mode] = len(reports)
            snapshot = service.detectors_snapshot()
            challenger_scans = sum(
                row["tally"]["scans"] for row in snapshot["detectors"]
            )
            if mode == "shadow":
                assert snapshot["enabled"]
                assert challenger_scans > 0  # the challenger actually scored
            else:
                assert not snapshot["enabled"]
            service.close()
        goodput[mode] = best
        rows.append(
            f"{mode:6s}  {accepted - len(history):8d}  {challenger_scans:16d}  "
            f"{best / 1e3:13.1f}"
        )

    # Alert-inert: the challenger must not change what gets reported.
    assert reports_by_mode["shadow"] == reports_by_mode["plain"]
    overhead = goodput["plain"] / goodput["shadow"] - 1.0
    rows.append(f"shadow-detector overhead: {overhead:+.1%} (target <= 5%)")
    emit("Shadow-detector overhead (one challenger, bursty service load)", rows)
    assert goodput["shadow"] >= goodput["plain"] / 1.25


def test_webhook_sink_overhead_within_bounds(capsys):
    """A dead webhook endpoint must not dent burst-ingest goodput.

    The full service workload with regressions planted in 8 of the 64
    series so reports actually flow to sinks during the timed phase —
    once with no sinks, once with a :class:`WebhookSink` pointed at a
    dead endpoint (connection refused on every post).  Delivery is
    enqueue-only on the scan path and all retries happen on the sink's
    background thread, so goodput should stay within the <= 5%
    acceptance target (reported in the table).  The assert uses a loose
    25% bound so scheduler jitter on busy CI machines never flakes the
    gate; the precise number is tracked by check_bench_regression.py
    history.  The delivered report list must be identical either way —
    a dead alerting edge never changes what detection reports.
    """
    from repro.connectors import WebhookSink

    values = _scan_values(series=SERIES)
    history = [
        Sample(name, tick * INTERVAL, float(values[name][tick]), {"metric": "gcpu"})
        for tick in range(HIST_TICKS)
        for name in SERIES
    ]
    regressed = set(SERIES[::8])  # 8 series step up during the bursts
    rng = np.random.default_rng(13)
    bursts = []
    tick = HIST_TICKS
    for _ in range(N_BURSTS):
        burst = [
            Sample(
                name, t * INTERVAL,
                float(rng.normal(0.001, 0.00002))
                + (0.0003 if name in regressed else 0.0),
                {"metric": "gcpu"},
            )
            for t in range(tick, tick + TICKS_PER_BURST)
            for name in SERIES
        ]
        tick += TICKS_PER_BURST
        bursts.append(burst)

    rows = ["mode     accepted  reports  enqueued  failed  goodput(kS/s)"]
    goodput = {}
    reports_by_mode = {}
    for mode in ("plain", "webhook"):
        best = 0.0
        for _ in range(3):  # best-of-3: goodput, not scheduler jitter
            sink = WebhookSink(
                # Port 9 (discard) is never bound on CI machines: every
                # post dies with connection-refused, immediately.
                "http://127.0.0.1:9/hook",
                timeout=0.2, max_retries=1, backoff=0.01, backoff_cap=0.05,
            )
            service = StreamingDetectionService(
                n_shards=8,
                sinks=[sink] if mode == "webhook" else [],
                queue_capacity=1 << 20,
                backpressure=BackpressurePolicy.BLOCK,
                batch_size=4_096,
            )
            service.register_monitor(
                "gcpu", scan_config(), series_filter={"metric": "gcpu"},
                incremental=True,
            )
            service.ingest_many(history)
            service.flush()
            service.advance_to(HIST_TICKS * INTERVAL)  # warm-up scan
            reports = []
            started = time.perf_counter()
            for burst in bursts:
                for sample in burst:
                    service.ingest_sample(sample)
                service.flush()
                reports.extend(service.advance_to(burst[-1].timestamp + INTERVAL))
            elapsed = time.perf_counter() - started
            accepted = service.stats().accepted
            best = max(best, (accepted - len(history)) / elapsed)
            reports_by_mode[mode] = [
                (report.metric_id, report.change_time) for report in reports
            ]
            service.close()
            counters = dict(sink.counters)
        goodput[mode] = best
        rows.append(
            f"{mode:7s}  {accepted - len(history):8d}  "
            f"{len(reports_by_mode[mode]):7d}  {counters['enqueued']:8d}  "
            f"{counters['failed']:6d}  {best / 1e3:13.1f}"
        )
        if mode == "webhook":
            # The endpoint really was dead and really was exercised.
            assert counters["enqueued"] > 0
            assert counters["failed"] == counters["enqueued"]

    # A dead alerting edge never changes what detection reports.
    assert reports_by_mode["webhook"] == reports_by_mode["plain"]
    assert len(reports_by_mode["plain"]) > 0
    overhead = goodput["plain"] / goodput["webhook"] - 1.0
    rows.append(f"webhook-sink overhead: {overhead:+.1%} (target <= 5%)")
    emit("Webhook sink overhead (dead endpoint, bursty service load)", rows)
    assert goodput["webhook"] >= goodput["plain"] / 1.25


def main(argv=None):
    """CLI entry: measure the parallel speedup at ``--workers N``.

    Exits non-zero when the machine has >= 4 CPUs and the speedup misses
    the 2.5x acceptance bar.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    values = _scan_values()
    baseline_scans, baseline_elapsed, baseline_reports, _ = run_parallel_scans(
        1, values
    )
    scans, elapsed, reports, _ = run_parallel_scans(args.workers, values)
    baseline_goodput = baseline_scans / baseline_elapsed
    parallel_goodput = scans / elapsed
    speedup = parallel_goodput / baseline_goodput
    print(f"workers=1: {baseline_scans} scans in {baseline_elapsed:.2f}s "
          f"({baseline_goodput:.1f} scans/s)")
    print(f"workers={args.workers}: {scans} scans in {elapsed:.2f}s "
          f"({parallel_goodput:.1f} scans/s)")
    print(f"speedup: {speedup:.2f}x on {os.cpu_count()} CPU(s)")
    if len(reports) != len(baseline_reports):
        print("FAIL: parallel and serial runs delivered different reports")
        return 1
    if args.workers >= 4 and (os.cpu_count() or 1) >= 4 and speedup < 2.5:
        print("FAIL: speedup below the 2.5x acceptance bar on >=4 CPUs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
