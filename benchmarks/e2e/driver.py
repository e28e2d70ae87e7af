"""Drives one workload through the service and scores what comes out.

One closed-loop client, one generator thread: each call waits for its
reply before the next is made.  The service is reached only through its
public surface — ``POST /api/v1/write`` on a ``RemoteWriteReceiver``,
``ingest_many``, ``flush``, ``advance_to``, ``checkpoint``, ``restore``,
``close`` and an ``IncidentSink`` — so the numbers stay comparable while
the layers behind that surface change.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers
import workloads
from hostclock import HostClock
from workloads import CONFIG, INTERVAL, PRELOAD_POINTS, POINTS_PER_ROUND, Event, Frame, Inputs

from repro.connectors import RemoteWriteReceiver
from repro.reporting.report import IncidentReport
from repro.runtime.sinks import CollectingSink
from repro.service import StreamingDetectionService

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

Metric = Tuple[float, str]

#: Reports and counts that must repeat exactly for a seed, whatever the
#: host is doing — compared across the runs of a set and between the
#: traced and the untraced run.
EXACT_KEYS = (
    "report_digest", "reports_delivered", "recall", "precision",
    "detect_delay_points_p50", "funnel", "admission", "samples_lost", "rounds",
)

#: Below these the outputs are wrong, not merely slower: an injected
#: event nobody was told about, or mostly noise in the reports.  At the
#: commit that defined the benchmark recall was 1.0 on each of ten seeds
#: and precision 0.83..1.0 (``storm_scan``; README, "Findings").
RECALL_FLOOR = 0.5
PRECISION_FLOOR = 0.5


class OpFailed(Exception):
    """A driver call came back, but not with what it had to."""


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    traced: bool
    correct: bool
    problems: List[str]
    ops_attempted: int
    ops_failed: int
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]
    exact: dict
    layers_missing: List[str] = field(default_factory=list)
    inputs_fingerprint: str = ""
    #: Every timed phase: raw wall and CPU seconds, the host probes
    #: around it, and the corrected seconds the metrics are made of.
    phases: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        as_rows = lambda metrics: {  # noqa: E731
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        }
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "traced": self.traced, "correct": self.correct, "problems": self.problems,
            "ops_attempted": self.ops_attempted, "ops_failed": self.ops_failed,
            "end_to_end": as_rows(self.end_to_end), "per_layer": as_rows(self.per_layer),
            "exact": self.exact, "layers_missing": self.layers_missing,
            "inputs_fingerprint": self.inputs_fingerprint,
            "phases": self.phases,
        }


class _Ops:
    """Counts driver calls and keeps what went wrong."""

    def __init__(self, tracer: Optional[layers.Tracer]) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, name: str, call: Callable[[], object]) -> object:
        """One op: fails on an exception (``OpFailed`` for a bad reply).

        Returns what ``call`` returned, ``None`` when it failed.
        """
        self.attempted += 1
        with self.tracer.span(f"driver.{name}") if self.tracer else nullcontext():
            try:
                return call()
            except Exception as error:  # the run goes on; the op is counted
                self.failed += 1
                self.errors.append(f"{name}: {type(error).__name__}: {error}")
                return None


def score(
    reports: Sequence[IncidentReport], events: Sequence[Event]
) -> Tuple[float, float, float, int]:
    """``(recall, precision, median delay in points, events found)``."""
    found: Dict[int, float] = {}
    matched = 0
    for report in reports:
        for index, event in enumerate(events):
            if (
                report.metric_id in event.series
                and abs(report.change_time - event.time) <= CONFIG.rerun_interval
            ):
                matched += 1
                found.setdefault(index, report.detection_latency / INTERVAL)
                break
    recall = len(found) / len(events) if events else 0.0
    precision = matched / len(reports) if reports else 0.0
    delay = statistics.median(found.values()) if found else 0.0
    return recall, precision, delay, len(found)


def report_digest(reports: Sequence[IncidentReport]) -> str:
    digest = hashlib.sha256()
    for report in reports:
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _histogram_sum(service: StreamingDetectionService, name: str) -> float:
    state = service.metrics.snapshot()["histograms"].get(name)
    return float(state["sum"]) if state else 0.0


def _newest_checkpoint_bytes(directory: str) -> int:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as source:
        manifest = json.load(source)
    return sum(int(entry["bytes"]) for entry in manifest["shards"].values())


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    sabotage: Optional[str] = None,
    workers: Optional[int] = None,
) -> RunResult:
    """Set up, run the timed phase, check the outputs, derive the metrics.

    Args:
        sabotage: Harness self-test only — ``"truncate_body"`` sends half
            of the first POST body, ``"withhold_frame"`` skips the first
            ``ingest_many``; the run must then fail its checks.
        workers: Overrides the workload's worker-process count (the
            harness runs ``restart_parallel`` at 1 to compare digests).
    """
    installed = layers.install() if trace else None
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    try:
        run = _Run(workload, seed, seconds, quick, sabotage, workers, installed, scratch)
        run.set_up()
        run.timed_rounds()
        run.read_service()
        run.restart()
        run.check()
        return run.result()
    finally:
        if installed:
            installed.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


class _Run:
    """The state of one run, from set-up to result."""

    def __init__(self, workload, seed, seconds, quick, sabotage, workers, installed, scratch):
        self.workload, self.seed, self.seconds, self.quick = workload, seed, seconds, quick
        self.sabotage = sabotage
        self.worker_override = workers
        self.installed = installed
        self.tracer: Optional[layers.Tracer] = installed.tracer if installed else None
        self.checkpoint_dir = os.path.join(scratch, "checkpoint")
        self.ops = _Ops(self.tracer)
        self.problems: List[str] = []
        self.queue_peak = self.body_bytes = 0

    # ---- set-up: inputs, service, preload, anchoring advance --------------

    def set_up(self) -> None:
        overrides = {"workers": self.worker_override} if self.worker_override is not None else {}
        self.clock = HostClock()
        with self.clock.phase("setup"):
            # Millions of input objects would otherwise be walked by every
            # full collection the service triggers: build them with the
            # collector off, then move them out of its sight.
            gc.disable()
            self.inputs: Inputs = workloads.build(
                self.workload, self.seed, self.seconds, quick=self.quick, **overrides
            )
            gc.enable()
            gc.freeze()
        inputs = self.inputs
        # Waiting on the wire is idle time; waiting on worker processes is
        # work done elsewhere on the same host.
        self.clock.waits_idle = inputs.wire
        self.sink = CollectingSink()
        self.service_kwargs = dict(workloads.SERVICE_KWARGS, workers=inputs.workers)
        with self.clock.phase("setup"):
            self.service = StreamingDetectionService(sinks=[self.sink], **self.service_kwargs)
            self.service.register_monitor("e2e", CONFIG, **inputs.monitor_kwargs)
            self.receiver = self.connection = None
            if inputs.wire:
                self.receiver = RemoteWriteReceiver(self.service).start()
                self.connection = http.client.HTTPConnection(
                    "127.0.0.1", self.receiver.port, timeout=60
                )
                self.connection.connect()
            preloaded = self.service.ingest_many(inputs.preload)
            if preloaded != len(inputs.preload):
                self.problems.append(f"preload: {preloaded} of {len(inputs.preload)} accepted")
        with self.clock.phase("setup"):
            self.service.flush()
            self.now = PRELOAD_POINTS * INTERVAL
            self.service.advance_to(self.now)
            inputs.preload = []
            gc.collect()
        self.before = self.service.stats()
        self.funnel_before = dict(self.service.funnel.counts)
        self.scan_sum_before = _histogram_sum(self.service, "scheduler.scan_seconds")
        self.advance_sum_before = _histogram_sum(self.service, "service.advance_seconds")
        self.reports_before = len(self.sink.reports)

    # ---- timed phase -------------------------------------------------------

    def _post(self, frame: Frame, body: bytes) -> None:
        self.connection.request(
            "POST", "/api/v1/write", body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise OpFailed(f"HTTP {response.status}: {payload[:120]!r}")
        reply = json.loads(payload)
        if reply.get("offered") != frame.offered or reply.get("accepted") != frame.offered:
            raise OpFailed(f"offered {frame.offered}, reply {reply}")

    def _ingest(self, frame: Frame) -> None:
        accepted = self.service.ingest_many(frame.samples)
        if accepted != frame.offered - frame.refused_by_design:
            raise OpFailed(
                f"accepted {accepted} of {frame.offered} "
                f"({frame.refused_by_design} refused by design)"
            )

    def timed_rounds(self) -> None:
        inputs, service, ops, tracer = self.inputs, self.service, self.ops, self.tracer
        withheld = self.sabotage == "withhold_frame"
        truncated = self.sabotage == "truncate_body"
        if tracer:
            tracer.enabled = True
        for r, frames in enumerate(inputs.frames):
            if tracer:
                tracer.round = r
                tracer.probe_state_bytes = r == inputs.rounds - 1
            with self.clock.phase("ingest", r):
                for frame in frames:
                    if frame.body is not None:
                        body = frame.body
                        if truncated:
                            body, truncated = body[: len(body) // 2], False
                        self.body_bytes += len(body)
                        ops.run("post", lambda: self._post(frame, body))
                    elif withheld:
                        withheld = False
                    else:
                        ops.run("ingest_many", lambda: self._ingest(frame))
                self.queue_peak = max(
                    self.queue_peak, sum(shard.pending for shard in service.stats().shards)
                )
                # advance_to() flushes too; flushing here first bills the
                # TSDB write to ingest instead of to the scan.
                ops.run("flush", service.flush)
            self.now += POINTS_PER_ROUND * INTERVAL
            with self.clock.phase("advance", r):
                ops.run("advance_to", lambda: service.advance_to(self.now))
            if inputs.checkpoints and (r + 1) % workloads.CHECKPOINT_EVERY == 0:
                with self.clock.phase("checkpoint", r):
                    ops.run("checkpoint", lambda: service.checkpoint(self.checkpoint_dir))

    # ---- what the service says happened ------------------------------------

    def read_service(self) -> None:
        service, before = self.service, self.before
        after = self.after = service.stats()
        self.reports = self.sink.reports[self.reports_before:]
        self.flushed = after.flushed - before.flushed
        self.admission = {
            key: sum(shard.counters.get(f"quality_{key}", 0) for shard in after.shards)
            - sum(shard.counters.get(f"quality_{key}", 0) for shard in before.shards)
            for key in ("quarantined", "repaired", "counter_resets", "duplicates", "reordered")
        }
        self.pending = sum(shard.pending for shard in after.shards)
        self.samples_lost = (
            self.inputs.samples_offered - self.flushed - self.admission["quarantined"]
        )
        self.funnel = {
            stage: count - self.funnel_before.get(stage, 0)
            for stage, count in service.funnel.counts.items()
        }
        self.scan_seconds = _histogram_sum(service, "scheduler.scan_seconds") - self.scan_sum_before
        self.advance_seconds = (
            _histogram_sum(service, "service.advance_seconds") - self.advance_sum_before
        )
        self.checkpoint_bytes = (
            _newest_checkpoint_bytes(self.checkpoint_dir) if self.inputs.checkpoints else 0
        )
        self.points_stored = sum(
            len(series)
            for shard in range(workloads.N_SHARDS)
            for series in service.shard_database(shard)
        )

    def _grew(self, counter: str) -> float:
        return self.after.metrics["counters"].get(counter, 0) - self.before.metrics[
            "counters"
        ].get(counter, 0)

    # ---- restart: close, then restore + first advance, three times ---------

    def restart(self) -> None:
        if self.receiver is not None:
            self.connection.close()
            self.receiver.stop()
        self.ops.run("close", self.service.close)
        if not self.inputs.checkpoints:
            return
        restore_kwargs = {k: v for k, v in self.service_kwargs.items() if k != "n_shards"}
        for cycle in range(workloads.RECOVERY_CYCLES):
            if self.tracer:
                self.tracer.round = self.inputs.rounds + cycle
            sink = CollectingSink()
            with self.clock.phase("recovery", cycle):
                restored = self.ops.run(
                    "restore",
                    lambda: StreamingDetectionService.restore(
                        self.checkpoint_dir, sinks=[sink], **restore_kwargs
                    ),
                )
                if restored is not None:
                    self.ops.run(
                        "advance_to",
                        lambda: restored.advance_to(self.now + CONFIG.rerun_interval),
                    )
            if restored is not None:
                restored.close()
            if sink.reports:
                self.problems.append(f"restart {cycle}: {len(sink.reports)} regressions re-alerted")
        if self.tracer:
            self.tracer.enabled = False

    # ---- score and check ----------------------------------------------------

    def check(self) -> None:
        inputs, problems = self.inputs, self.problems
        recall, precision, delay, found = score(self.reports, inputs.events)
        self.exact = {
            "report_digest": report_digest(self.reports),
            "reports_delivered": len(self.reports),
            "recall": recall,
            "precision": precision,
            "detect_delay_points_p50": delay,
            "funnel": self.funnel,
            "admission": self.admission,
            "samples_lost": self.samples_lost,
            "rounds": inputs.rounds,
            "events": len(inputs.events),
            "events_found": found,
            "samples_offered": inputs.samples_offered,
        }
        problems.extend(self.ops.errors)
        if self.samples_lost != 0:
            problems.append(
                f"samples_lost = {self.samples_lost} "
                f"(offered {inputs.samples_offered}, flushed {self.flushed})"
            )
        if self.pending:
            problems.append(f"{self.pending} samples still queued after the last flush")
        if self.after.rejected or self.after.dropped:
            problems.append(
                f"rejected {self.after.rejected}, dropped {self.after.dropped} under BLOCK"
            )
        for key, wanted in inputs.expected.items():
            if key in self.admission and self.admission[key] != wanted:
                problems.append(f"admission.{key} = {self.admission[key]}, inputs carry {wanted}")
        if recall < RECALL_FLOOR:
            problems.append(f"recall {recall:.3f} < {RECALL_FLOOR} ({found}/{len(inputs.events)})")
        if precision < PRECISION_FLOOR:
            problems.append(f"precision {precision:.3f} < {PRECISION_FLOOR}")
        if self.tracer:
            self._check_trace()

    def _check_trace(self) -> None:
        spans = self.tracer.spans
        self.problems.extend(layers.check_well_formed(spans)[:10])
        totals = layers.Totals.of([span for span in spans if span.round < self.inputs.rounds])
        for label, traced_s, own_s in (
            ("DetectionPipeline.run vs scheduler.scan_seconds",
             totals.busy_s("core.pipeline.run"), self.scan_seconds),
            ("advance_to vs service.advance_seconds",
             totals.busy_s("service.advance"), self.advance_seconds),
        ):
            if own_s and abs(traced_s - own_s) > 0.10 * own_s:
                self.problems.append(f"{label}: wrappers {traced_s:.3f}s, service {own_s:.3f}s")

    # ---- metrics --------------------------------------------------------------

    def _per_layer(self) -> Dict[str, Metric]:
        inputs, after, clock = self.inputs, self.after, self.clock
        hits = self._grew("pipeline.incremental.hits")
        misses = self._grew("pipeline.incremental.misses")
        series = [shard.series for shard in after.shards]
        raw = lambda kind: clock.seconds(kind, corrected=False)  # noqa: E731
        facts = {
            "rounds_wall_s": sum(raw("ingest") + raw("advance") + raw("checkpoint")),
            "rounds": inputs.rounds, "monitored": inputs.monitored,
            "total_series": inputs.total_series, "workers": inputs.workers,
            "samples_offered": inputs.samples_offered, "body_bytes": self.body_bytes,
            "shard_skew": max(series) / (sum(series) / len(series)),
            "queue_peak": self.queue_peak, "rejected": after.rejected, "dropped": after.dropped,
            "admission": self.admission, "points_stored": self.points_stored,
            "incremental_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "incremental_misses": misses, "funnel": self.funnel,
            "scans": self._grew("scheduler.scans"), "reports_delivered": len(self.reports),
            "advance_retries": self._grew("advance.retries"),
            "advance_fallbacks": self._grew("advance.fallbacks"),
            "advance_s": raw("advance"), "checkpoint_s": raw("checkpoint"),
            "checkpoint_bytes": self.checkpoint_bytes, "recovery_s": raw("recovery"),
            "host_slowdown": clock.mean_slowdown(),
        }
        return layers.layer_metrics(self.tracer.spans, facts)

    def result(self) -> RunResult:
        inputs, clock = self.inputs, self.clock
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ingest_s, advance_s = sum(clock.seconds("ingest")), sum(clock.seconds("advance"))
        # The restarts are part of restart_parallel's scenario, so a
        # slower recovery shows in its headline.
        scenario_s = (
            ingest_s + advance_s + sum(clock.seconds("checkpoint")) + sum(clock.seconds("recovery"))
        )
        offered = inputs.samples_offered
        end_to_end: Dict[str, Metric] = {
            "setup_s": (sum(clock.seconds("setup")), "s"),
            "e2e_samples_per_s": (offered / scenario_s, "1/s"),
            "ingest_samples_per_s": (offered / ingest_s, "1/s"),
            "advance_series_per_s": (inputs.monitored * inputs.rounds / advance_s, "1/s"),
            "recall": (self.exact["recall"], "ratio"),
            "precision": (self.exact["precision"], "ratio"),
            "detect_delay_points_p50": (self.exact["detect_delay_points_p50"], "points"),
            "peak_rss_mb": ((usage_self + usage_children) / 1024.0, "MB"),
        }
        per_layer: Dict[str, Metric] = {}
        if self.tracer:
            per_layer = self._per_layer()
            _write_trace(self.workload, self.seed, self.tracer.spans, self.installed.missing)
        return RunResult(
            workload=self.workload, seed=self.seed, seconds=self.seconds,
            traced=bool(self.tracer), correct=not self.problems, problems=self.problems,
            ops_attempted=self.ops.attempted, ops_failed=self.ops.failed,
            end_to_end=end_to_end, per_layer=per_layer, exact=self.exact,
            layers_missing=self.installed.missing if self.installed else [],
            inputs_fingerprint=inputs.fingerprint(),
            phases=[vars(phase) | {"corrected_s": clock.corrected_s(phase)}
                    for phase in clock.phases],
        )


def _write_trace(workload: str, seed: int, spans, missing: List[str]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace.{workload}.json")
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(
            {
                "workload": workload, "seed": seed, "layers_missing": missing,
                "spans": [span.to_dict() for span in sorted(spans, key=lambda s: s.start_ns)],
            },
            sink,
        )
