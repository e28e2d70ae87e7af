"""Command-line interface.

Four subcommands mirror the production workflow:

- ``repro-fbdetect simulate`` — run a fleet simulation for a Table 1
  workload preset, injecting an optional regression, and dump the
  resulting series to a CSV.
- ``repro-fbdetect detect`` — run detection over a CSV of
  ``timestamp,value`` points with a chosen configuration and print the
  incident reports.
- ``repro-fbdetect serve-demo`` — stream a fleet simulation through the
  sharded :class:`~repro.service.StreamingDetectionService` and print
  the detection funnel plus the service's self-metrics.
- ``repro-fbdetect presets`` — list the available Table 1 presets.

Example::

    repro-fbdetect simulate --preset invoicer_short --regress 1.2 \
        --out /tmp/series.csv
    repro-fbdetect detect /tmp/series.csv --config invoicer_short
    repro-fbdetect serve-demo --preset invoicer_short --shards 4 --regress 2.0
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro import FBDetect, TimeSeriesDatabase, table1_config
from repro.config import TABLE1_CONFIGS
from repro.connectors import CsvImporter, ImportStats
from repro.fleet import ChangeEffect, ChangeLog, CodeChange, FleetSimulator
from repro.reporting import build_report, format_report
from repro.reporting.funnel import format_funnel_table
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService, views
from repro.service.parallel import ADVANCE_DEADLINE
from repro.workloads import build_preset, preset_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fbdetect",
        description="FBDetect reproduction: simulate fleets and detect regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a fleet simulation preset")
    simulate.add_argument("--preset", default="invoicer_short", choices=preset_names())
    simulate.add_argument("--ticks", type=int, default=900, help="collection intervals")
    simulate.add_argument("--interval", type=float, default=60.0, help="seconds per tick")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--regress",
        type=float,
        default=0.0,
        help="cost factor applied to the hottest subroutine at 70%% of the run "
        "(e.g. 1.2 = +20%%); 0 disables",
    )
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.add_argument(
        "--metric",
        default=None,
        help="series name to export (default: hottest subroutine's gCPU)",
    )

    detect = sub.add_parser("detect", help="detect regressions in a CSV series")
    detect.add_argument(
        "csv_path",
        help="CSV of one series: timestamp,value rows (header optional) or "
        "the long form name,timestamp,value; malformed rows are skipped",
    )
    detect.add_argument("--config", default="frontfaas_small", choices=sorted(TABLE1_CONFIGS))
    detect.add_argument("--threshold", type=float, default=None, help="override threshold")

    serve = sub.add_parser(
        "serve-demo",
        help="stream a fleet simulation through the sharded detection service",
    )
    serve.add_argument("--preset", default="invoicer_short", choices=preset_names())
    serve.add_argument("--ticks", type=int, default=600, help="collection intervals")
    serve.add_argument("--interval", type=float, default=60.0, help="seconds per tick")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--shards", type=int, default=4, help="service shard count")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for shard advances (1 = in-thread)",
    )
    serve.add_argument(
        "--capacity", type=int, default=1024, help="per-shard ingest queue bound"
    )
    serve.add_argument(
        "--policy",
        default="block",
        choices=[p.value for p in BackpressurePolicy],
        help="backpressure policy when a shard queue fills",
    )
    serve.add_argument("--batch-size", type=int, default=256, help="TSDB flush batch")
    serve.add_argument(
        "--regress",
        type=float,
        default=2.0,
        help="cost factor applied to the hottest subroutine at 60%% of the run "
        "(e.g. 2.0 = +100%%); 0 disables",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write a service checkpoint here after the run",
    )
    serve.add_argument(
        "--obs-port",
        type=int,
        default=None,
        help="serve /metrics, /healthz and /status on this port for the "
        "duration of the run (0 = pick a free port)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (one object per line) on stderr",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON_PATH_OR_SEED",
        help="run the demo under fault injection: a path to a fault-plan "
        "JSON file, or 'chaos:<seed>' for a generated chaos schedule. Kinds: "
        "worker_crash, advance_hang, flush_error; damage the "
        "data itself with --dirty-data",
    )
    serve.add_argument(
        "--dirty-data",
        action="store_true",
        help="damage the simulated stream before ingest (out-of-order "
        "batches, NaN bursts, dropped samples) to exercise the "
        "data-quality admission layer",
    )
    serve.add_argument(
        "--ingest-csv",
        default=None,
        metavar="CSV_PATH",
        help="stream real data from this CSV (long form "
        "'name,timestamp,value[,tag...]' or narrow 'timestamp,value') "
        "through the connector import path instead of the fleet "
        "simulator; detection windows are fit to the file's span and a "
        "1%% relative-threshold monitor is registered over the imported "
        "series",
    )
    serve.add_argument(
        "--webhook",
        default=None,
        metavar="URL",
        help="additionally deliver incident reports to this webhook URL "
        "(Slack-shaped JSON) through the buffered, retried, deduplicated "
        "WebhookSink; delivery counters are printed at exit",
    )

    sub.add_parser("presets", help="list Table 1 workload presets")
    return parser


def _hottest_and_change(preset, regress: float, deploy_time: float):
    """The preset's hottest non-root subroutine, and a change log that
    multiplies its cost by ``regress`` at ``deploy_time`` (empty for 0)."""
    graph = preset.service.call_graph
    probabilities = graph.inclusion_probabilities()
    hottest = max(
        (name for name in graph.names() if name != graph.root),
        key=lambda name: probabilities[name],
    )
    change_log = ChangeLog()
    if regress:
        change_log.add(
            CodeChange(
                "cli-injected",
                deploy_time=deploy_time,
                title=f"cli: regress {hottest}",
                effects=(ChangeEffect(hottest, regress),),
            )
        )
    return hottest, change_log


def _cmd_simulate(args: argparse.Namespace) -> int:
    preset = build_preset(args.preset, seed=args.seed)
    hottest, change_log = _hottest_and_change(
        preset, args.regress, 0.7 * args.ticks * args.interval
    )

    simulation = FleetSimulator(
        preset.service, change_log=change_log, interval=args.interval, seed=args.seed
    ).run(args.ticks)

    metric = args.metric or f"{preset.service.name}.{hottest}.gcpu"
    series = simulation.database.get(metric)
    if series is None:
        print(f"error: no series named {metric!r}; available:", file=sys.stderr)
        for name in simulation.database.names()[:20]:
            print(f"  {name}", file=sys.stderr)
        return 2

    with open(args.out, "w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        writer.writerow(["timestamp", "value"])
        for timestamp, value in series:
            writer.writerow([f"{timestamp:.3f}", f"{value:.10g}"])
    print(f"wrote {len(series)} points of {metric} to {args.out}")
    if args.regress:
        print(f"injected x{args.regress} regression on {hottest} at tick {int(0.7 * args.ticks)}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    stats = ImportStats()
    try:
        samples = list(CsvImporter().iter_samples(args.csv_path, stats))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if stats.bad_rows:
        print(f"skipped {stats.bad_rows} malformed rows", file=sys.stderr)
    names = {sample.name for sample in samples}
    if len(names) > 1:
        print(f"error: the CSV names {len(names)} series; detect reads one",
              file=sys.stderr)
        return 2
    if len(samples) < 30:
        print("error: need at least 30 points", file=sys.stderr)
        return 2

    database = TimeSeriesDatabase()
    series = database.create("cli.series", {"metric": "cli"})
    series.ingest_many((sample.timestamp, sample.value) for sample in samples)

    config = table1_config(args.config)
    if args.threshold is not None:
        config = replace(config, threshold=args.threshold)
    span = series.end - series.start
    if span > 0:  # shrink the configured windows to span the CSV
        config = config.with_windows(
            historic=span * 2 / 3, analysis=span * 2 / 9, extended=span * 1 / 9
        )

    detector = FBDetect(config)
    result = detector.run(database, now=series.end + 1e-9)

    print(f"change points detected: {result.funnel.counts['change_points']}")
    print(f"regressions reported:   {len(result.reported)}")
    for regression in result.reported:
        print()
        print(format_report(build_report(regression)))
    return 0 if result.reported else 1


def _tick_samples(simulator: FleetSimulator, tick_time: float) -> List[Sample]:
    """The points the simulator's last tick wrote, one per series."""
    return [
        Sample(series.name, tick_time, latest[1], dict(series.tags))
        for series in simulator.database
        if (latest := series.latest()) is not None and latest[0] == tick_time
    ]


def _stream_dirty(
    args: argparse.Namespace,
    simulator: FleetSimulator,
    service: StreamingDetectionService,
    hottest: str,
) -> None:
    """Run the simulation, damage the stream, and replay it dirtily.

    The clean per-tick stream is collected first, then damaged with
    :func:`repro.fleet.dirty.dirty_stream` (local reordering everywhere,
    NaN bursts on two gCPU series, dropped samples on two series that
    are *not* the regressing one), then ingested in ten chunks with an
    advance after each — the admission layer absorbs the damage before
    detection ever looks.
    """
    from repro.fleet.dirty import DirtyDataSpec, dirty_stream

    stream: List[Sample] = []
    for _ in range(args.ticks):
        tick_time = simulator.time
        simulator.tick()
        stream.extend(_tick_samples(simulator, tick_time))
    gcpu = sorted({s.name for s in stream if s.name.endswith(".gcpu")})
    quiet = [name for name in gcpu if hottest not in name]
    # One sample per series per tick: a shuffle block spanning ~3 ticks
    # displaces each series by at most ~3 positions, safely inside the
    # default admission reorder window of 16.
    n_series = len({s.name for s in stream})
    spec = DirtyDataSpec(
        seed=args.seed,
        reorder_block=3 * max(1, n_series),
        nan_series=tuple(gcpu[:2]),
        gap_series=tuple(quiet[:2]),
        gap_fraction=0.03,
    )
    dirty = dirty_stream(stream, spec)
    print(f"dirty-data drill: {len(stream)} clean samples -> {len(dirty)} "
          f"delivered (reorder block {spec.reorder_block}, NaN bursts on "
          f"{len(spec.nan_series)} series, gaps on {len(spec.gap_series)})")
    chunk = max(1, len(dirty) // 10)
    seen = 0.0
    for start in range(0, len(dirty), chunk):
        batch = dirty[start:start + chunk]
        service.ingest_many(batch)
        seen = max(seen, max(sample.timestamp for sample in batch))
        service.advance_to(seen + args.interval)
    service.advance_to(simulator.time)


def _build_service(args: argparse.Namespace, fault_injector=None):
    """The service both serve-demo paths run: ``(service, collecting
    sink, webhook sink)`` — the last ``None`` without ``--webhook``,
    else delivering beside the first and counting into the service's
    registry.  Under a fault plan a shard advance gets a 5 s deadline."""
    sink = CollectingSink()
    sinks = [sink]
    webhook_sink = None
    if args.webhook:
        from repro.connectors import WebhookSink

        webhook_sink = WebhookSink(args.webhook)
        sinks.append(webhook_sink)
    service = StreamingDetectionService(
        n_shards=args.shards,
        workers=args.workers,
        sinks=sinks,
        queue_capacity=args.capacity,
        backpressure=BackpressurePolicy(args.policy),
        batch_size=args.batch_size,
        fault_injector=fault_injector,
        advance_deadline=ADVANCE_DEADLINE if fault_injector is None else 5.0,
    )
    if webhook_sink is not None:
        webhook_sink.metrics = service.metrics
    return service, sink, webhook_sink


def _print_reports(sink: CollectingSink) -> None:
    print(f"incident reports delivered: {len(sink.reports)}")
    for report in sink.reports:
        print(f"  - {report.metric_id} ({report.relative_magnitude:+.1%} "
              f"at t={report.change_time:.0f})")


def _close(service: StreamingDetectionService, webhook_sink) -> int:
    """Close the service, then tally the webhook deliveries its close
    flushed; the exit code of a demo that ran."""
    service.close()
    if webhook_sink is not None:
        tally = ", ".join(
            f"{name}={count}" for name, count in sorted(webhook_sink.counters.items())
        )
        print()
        print(f"webhook delivery ({webhook_sink.url}): {tally}")
    return 0


def _serve_demo_csv(args: argparse.Namespace) -> int:
    """serve-demo --ingest-csv: real data through the connector path."""
    from repro.config import DetectionConfig
    from repro.tsdb import WindowSpec

    importer = CsvImporter()
    stats = ImportStats()
    try:
        samples = list(importer.iter_samples(args.ingest_csv, stats))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not samples:
        print("error: no parseable samples in the CSV", file=sys.stderr)
        return 2
    first = min(sample.timestamp for sample in samples)
    last = max(sample.timestamp for sample in samples)
    span = last - first
    if span <= 0:
        print("error: the CSV spans a single timestamp", file=sys.stderr)
        return 2

    # Fit the detection windows to the file's span (as ``detect``
    # does); imported series carry arbitrary units, so the threshold is
    # relative — 1%, loose enough to clear collection noise yet tight
    # enough for simulator-scale shifts.
    config = DetectionConfig(
        name="csv-import",
        threshold=0.01,
        relative_threshold=True,
        rerun_interval=max(args.interval, span / 10),
        windows=WindowSpec(
            historic=span * 0.5, analysis=span * 0.3, extended=span * 0.1
        ),
        long_term=False,
    )

    service, sink, webhook_sink = _build_service(args)
    service.register_monitor(
        "csv-import", config, series_filter={"source": importer.source_name}
    )

    stats.offer(service, samples)
    service.flush()
    # Walk detection through the imported span in ten steps so the
    # monitor scans on its rerun cadence instead of once in hindsight.
    steps = 10
    for index in range(1, steps + 1):
        service.advance_to(first + span * index / steps + args.interval)

    print(f"imported {stats.offered} samples from {args.ingest_csv} "
          f"({stats.accepted} accepted, {stats.bad_rows} malformed rows "
          f"skipped)")
    print(f"{stats.series} series spanning t=[{first:.0f}, {last:.0f}] "
          f"through {args.shards} shard(s), {args.workers} worker(s)")
    print()
    print(service.stats().render())
    print()
    _print_reports(sink)
    return _close(service, webhook_sink)


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.capacity < 1 or args.batch_size < 1:
        print("error: --capacity and --batch-size must be positive", file=sys.stderr)
        return 2
    if args.ingest_csv:
        return _serve_demo_csv(args)
    preset = build_preset(args.preset, seed=args.seed)
    span = args.ticks * args.interval
    hottest, change_log = _hottest_and_change(preset, args.regress, 0.6 * span)

    simulator = FleetSimulator(
        preset.service, change_log=change_log, interval=args.interval, seed=args.seed
    )

    # Fit the preset's detection windows and cadence to the demo's span.
    config = replace(
        preset.config.with_windows(
            historic=span * 0.5, analysis=span * 0.3, extended=span * 0.1
        ),
        rerun_interval=max(args.interval, span / 10),
    )

    if args.log_json:
        from repro.obs.logging import configure_json_logging

        configure_json_logging()

    injector = None
    if args.fault_plan:
        from repro.faults import FaultInjector, FaultPlan

        if args.fault_plan.startswith("chaos:"):
            try:
                chaos_seed = int(args.fault_plan.split(":", 1)[1])
            except ValueError:
                print("error: --fault-plan chaos:<seed> needs an integer seed",
                      file=sys.stderr)
                return 2
            plan = FaultPlan.chaos(chaos_seed, n_shards=args.shards)
        else:
            try:
                plan = FaultPlan.from_json_file(args.fault_plan)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        injector = FaultInjector(plan)
        print(f"fault injection armed: seed={plan.seed}, "
              f"{len(plan.specs)} spec(s)")

    service, sink, webhook_sink = _build_service(args, injector)
    service.register_monitor(args.preset, config, series_filter={"metric": "gcpu"})

    obs_server = None
    if args.obs_port is not None:
        from repro.obs import ObservabilityServer

        obs_server = ObservabilityServer(service, port=args.obs_port).start()
        print(f"observability endpoints at {obs_server.url} "
              "(/metrics /healthz /status /faults /quality)")

    if args.dirty_data:
        _stream_dirty(args, simulator, service, hottest)
    else:
        for _ in range(args.ticks):
            tick_time = simulator.time
            simulator.tick()
            service.ingest_many(_tick_samples(simulator, tick_time))
            service.advance_to(simulator.time)
    service.flush()

    stats = service.stats()
    snapshot = stats.metrics
    print(f"streamed {stats.accepted} samples over {args.ticks} ticks "
          f"({len(simulator.database)} series) through {args.shards} shard(s), "
          f"{args.workers} worker(s)")
    if args.regress:
        print(f"injected x{args.regress} regression on {hottest} "
              f"at t={0.6 * span:.0f}")
    print()
    print(format_funnel_table({args.preset: service.funnel}))
    print()
    print(stats.render())
    print()
    hits = snapshot["counters"].get("pipeline.incremental.hits", 0.0)
    misses = snapshot["counters"].get("pipeline.incremental.misses", 0.0)
    decisions = hits + misses
    rate = hits / decisions if decisions else 0.0
    print(f"incremental scan cache: {hits:.0f} hits / {misses:.0f} full scans "
          f"({rate:.1%} hit rate)")
    shard_hist = snapshot["histograms"].get("service.shard_advance_seconds")
    if shard_hist and shard_hist["count"]:
        histogram = service.metrics.histogram("service.shard_advance_seconds")
        print(f"per-shard advance latency: mean {histogram.mean * 1e3:.2f} ms, "
              f"p99 {histogram.quantile(0.99) * 1e3:.2f} ms "
              f"over {shard_hist['count']} advances")
    print()
    _print_reports(sink)
    _, quality = views.quality(service)
    counters = quality["counters"]
    print()
    print(f"data quality: {counters['admitted']} admitted, "
          f"{counters['quarantined']} quarantined, "
          f"{counters['repaired']} repaired, "
          f"{counters['reordered']} reordered, "
          f"{counters['counter_resets']} counter resets, "
          f"{counters['duplicates']} duplicates")
    stale = quality["stale_series"]
    if stale:
        print(f"stale series evicted from scheduling: {', '.join(stale)}")
    if injector is not None:
        fired = injector.counts()
        total = sum(fired.values())
        print()
        print(f"faults injected: {total}"
              + (f" ({', '.join(f'{k}={v}' for k, v in sorted(fired.items()))})"
                 if fired else ""))
        retries = snapshot["counters"].get("advance.retries", 0.0)
        fallbacks = snapshot["counters"].get("advance.fallbacks", 0.0)
        ckpt_fallbacks = snapshot["counters"].get("checkpoint.fallbacks", 0.0)
        print(f"recoveries: advance retries={retries:.0f}, "
              f"in-process fallbacks={fallbacks:.0f}, "
              f"checkpoint fallbacks={ckpt_fallbacks:.0f}")
        degraded = service.degraded_reasons()
        print("degraded shards at exit: "
              + (str(degraded) if degraded else "none (recovered)"))
    if args.checkpoint_dir:
        path = service.checkpoint(args.checkpoint_dir)
        print(f"\ncheckpoint written to {path}")
    if obs_server is not None:
        # Self-scrape before shutdown so the demo proves the endpoints
        # answer over real HTTP, not just in-process.
        import urllib.request

        print()
        for endpoint in ("/metrics", "/healthz", "/status", "/quality"):
            try:
                with urllib.request.urlopen(
                    obs_server.url + endpoint, timeout=5.0
                ) as response:
                    print(f"self-scrape {endpoint}: HTTP {response.status}, "
                          f"{len(response.read())} bytes")
            except OSError as error:  # pragma: no cover - diagnostics only
                print(f"self-scrape {endpoint}: failed ({error})")
        print()
        print(views.funnel_trace(service).render())
        obs_server.stop()
    return _close(service, webhook_sink)


def _cmd_presets(_: argparse.Namespace) -> int:
    for key in preset_names():
        preset = build_preset(key)
        print(f"{key:20s} {preset.config.name:22s} {preset.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "detect": _cmd_detect,
        "serve-demo": _cmd_serve_demo,
        "presets": _cmd_presets,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
