"""The layer table, and the tracer that wraps it for a traced run.

``src/`` records no spans of its own for the benchmark: the table below
names the call at each layer boundary, and :func:`install` wraps those
attributes for the traced subprocess only (``uninstall`` puts the
originals back).  Two kinds of wrapper:

- ``SPAN`` — calls made a few times per advance get a real span: name,
  start, end, parent, round.
- ``ACC`` — calls made per sample, per series or per candidate add
  ``(count, busy_ns, self_ns, units)`` to the span they run under, so
  millions of calls do not become millions of spans.

Self time is a call's duration minus the time spent in wrapped calls
below it.  A target that no longer resolves is reported under
``layers_missing``; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pickle
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SPAN = "span"
ACC = "acc"


@dataclass(frozen=True)
class Target:
    """One wrapped call: the layer it stands for and where it is bound."""

    layer: str
    module: str
    attribute: str
    kind: str
    #: Work units one call handled, from ``(args, result)``; the
    #: denominator of the per-sample / per-row metrics.
    units: Optional[Callable[[tuple, object], int]] = None


def _written(args: tuple, result: object) -> int:
    return int(result)


def _target(layer: str, module: str, attribute: str, kind: str, units=None) -> Target:
    return Target(layer, f"repro.{module}", attribute, kind, units)


TARGETS: Tuple[Target, ...] = (
    _target("connectors.remote_write.handle", "connectors.remote_write", "_Handler.do_POST", SPAN),
    _target("connectors.remote_write.parse", "connectors.remote_write", "parse_remote_write", ACC,
            units=lambda args, result: len(result)),
    _target("connectors.mapping.map", "connectors.mapping", "SeriesMapper.map", ACC),
    _target("service.router.shard_for", "service.router", "ConsistentHashRouter.shard_for", ACC),
    _target("service.ingest.offer", "service.ingest", "ShardIngestWorker.offer", ACC),
    _target("service.ingest.flush", "service.ingest", "ShardIngestWorker.flush", ACC, _written),
    _target("quality.admission.admit", "quality.admission", "AdmissionController.admit", ACC),
    _target("quality.admission.admit_slow", "quality.admission",
            "AdmissionController._admit_slow", ACC),
    _target("tsdb.write_batch", "tsdb.database", "TimeSeriesDatabase.write_batch", ACC, _written),
    _target("tsdb.view", "tsdb.windows", "WindowSpec.view", ACC),
    _target("service.advance", "service.service", "StreamingDetectionService.advance_to", SPAN),
    _target("runtime.scheduler.advance_to", "runtime.scheduler",
            "DetectionScheduler.advance_to", SPAN),
    _target("core.pipeline.run", "core.pipeline", "DetectionPipeline.run", SPAN),
    _target("core.incremental.screen_batch", "core.incremental",
            "IncrementalScanCache.screen_batch", SPAN, units=lambda args, result: len(args[1])),
    _target("core.change_point.detect", "core.change_point",
            "ChangePointDetector.detect_increase", ACC),
    _target("core.went_away.check", "core.went_away", "WentAwayDetector.check", ACC),
    _target("core.seasonality.check", "core.seasonality", "SeasonalityDetector.check", ACC),
    _target("core.same_regression.check", "core.same_regression",
            "SameRegressionMerger.check", ACC),
    _target("core.dedup_som.deduplicate", "core.dedup_som", "SOMDedup.deduplicate", ACC),
    _target("core.cost_shift.check", "core.cost_shift", "CostShiftDetector.check", ACC),
    _target("core.dedup_pairwise.process", "core.dedup_pairwise", "PairwiseDedup.process", ACC),
    _target("core.root_cause.analyze", "core.root_cause", "RootCauseAnalyzer.analyze", ACC),
    # The stats kernels are wrapped where the stages bind them.
    _target("stats.em", "core.change_point", "em_mean_split", ACC),
    _target("stats.mann_kendall", "core.went_away", "mann_kendall_test", ACC),
    _target("stats.sax", "core.went_away", "sax_encode", ACC),
    _target("stats.stl", "core.seasonality", "stl_decompose", ACC),
    _target("stats.cusum_screen_batch", "core.incremental", "cusum_screen_batch", ACC,
            units=lambda args, result: len(args[0])),
    _target("service.parallel.map_shards", "service.parallel",
            "ParallelShardExecutor.map_shards", SPAN),
    _target("service.parallel.worker", "service.parallel", "_advance_shard", SPAN),
    _target("service.checkpoint.save", "service.checkpoint", "CheckpointManager.save", SPAN),
    _target("service.checkpoint.load", "service.checkpoint", "CheckpointManager.load", SPAN),
    _target("runtime.sinks.deliver", "runtime.sinks", "CollectingSink.deliver", ACC),
)


@dataclass
class Span:
    """One recorded call: who caused it, when, and what ran under it."""

    id: int
    name: str
    parent: Optional[int]
    round: int
    start_ns: int
    end_ns: int = 0
    #: Time covered by wrapped calls directly below this one.
    child_ns: int = 0
    #: ``layer -> [count, busy_ns, self_ns, units]`` of ACC calls below.
    acc: Dict[str, List[int]] = field(default_factory=dict)
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "round": self.round,
            "start_ns": self.start_ns, "end_ns": self.end_ns, "self_ns": self.self_ns,
            "acc": self.acc, "attrs": self.attrs,
        }


class _Frame:
    """One entry of a thread's call stack of wrapped calls."""

    __slots__ = ("span", "child_ns")

    def __init__(self, span: Span) -> None:
        self.span = span  # the span this frame is, or the one it runs under
        self.child_ns = 0


class Tracer:
    """Keeps spans in memory; the benchmark writes them out at exit."""

    def __init__(self) -> None:
        self.enabled = False
        self.round = -1
        #: Set by the driver for one advance: also measure the pickled
        #: size of the states the workers send back.
        self.probe_state_bytes = False
        self.spans: List[Span] = []
        self.owner_pid = os.getpid()
        self._ids = itertools.count(1)
        self._driver_thread = threading.get_ident()
        self._driver_stack: List[_Frame] = []
        self._local = threading.local()
        #: Calls other threads have open on the driver's behalf.
        self._foreign_open = 0

    # -- stacks ----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        if threading.get_ident() == self._driver_thread:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[_Frame]) -> Optional[_Frame]:
        """The frame a new call runs under.

        A thread with nothing open (the HTTP handler thread) is working
        for the one call the driver has open: closed loop, one client.
        """
        if stack:
            return stack[-1]
        if stack is self._driver_stack:
            return None
        self._foreign_open += 1  # taken back by _left()
        return self._driver_stack[-1] if self._driver_stack else None

    def _left(self, stack: List[_Frame]) -> None:
        """A frame was popped; note when a foreign thread is done."""
        if not stack and stack is not self._driver_stack:
            self._foreign_open -= 1

    def settle(self) -> None:
        """Wait for calls other threads still have open under the driver.

        The HTTP handler returns (and its span closes) only after the
        response has gone out, so the client can be back here first.
        """
        while self._foreign_open:
            time.sleep(0)

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> Tuple[List[_Frame], Optional[_Frame], _Frame]:
        stack = self._stack()
        parent = self._parent(stack)
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.span.id if parent is not None else None,
            round=self.round,
            start_ns=time.perf_counter_ns(),
        )
        frame = _Frame(span)
        stack.append(frame)
        return stack, parent, frame

    def close(self, stack: List[_Frame], parent: Optional[_Frame], frame: _Frame) -> Span:
        span = frame.span
        if stack is self._driver_stack:
            self.settle()
        span.end_ns = time.perf_counter_ns()
        stack.pop()
        self._left(stack)
        span.child_ns = frame.child_ns
        if parent is not None:
            parent.child_ns += span.duration_ns
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """A driver-side span (``with tracer.span("driver.flush"): ...``)."""
        if not self.enabled:
            yield None
            return
        token = self.open(name)
        try:
            yield token[2].span
        finally:
            self.close(*token)

    # -- worker processes --------------------------------------------------

    def begin_in_worker(self) -> None:
        """Start afresh in a forked pool worker (it inherited our stacks)."""
        self.enabled = True
        self.spans = []
        self._driver_thread = threading.get_ident()
        self._driver_stack = []
        self._local = threading.local()
        self._foreign_open = 0

    def adopt(self, parent: _Frame, shipped: Sequence[dict]) -> None:
        """Hang a worker's spans under the ``map_shards`` call that ran it."""
        renumber = {row["id"]: next(self._ids) for row in shipped}
        for row in shipped:
            self.spans.append(
                Span(
                    id=renumber[row["id"]],
                    name=row["name"],
                    parent=renumber.get(row["parent"], parent.span.id),
                    round=self.round,
                    start_ns=row["start_ns"],
                    end_ns=row["end_ns"],
                    child_ns=row["end_ns"] - row["start_ns"] - row["self_ns"],
                    acc=row["acc"],
                    attrs=row["attrs"],
                )
            )


def _covered_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _acc_wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    layer, units = target.layer, target.units
    collect = inspect.isgeneratorfunction(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        stack = tracer._stack()
        parent = tracer._parent(stack)
        if parent is None:
            tracer._left(stack)
            return original(*args, **kwargs)
        frame = _Frame(parent.span)
        stack.append(frame)
        done = 0
        start = time.perf_counter_ns()
        try:
            result = original(*args, **kwargs)
            if collect:
                # A generator does its work while it is consumed: do
                # that here, so the time lands on this layer.
                result = list(result)
            if units is not None:
                done = units(args, result)
            return result
        finally:
            busy = time.perf_counter_ns() - start
            stack.pop()
            tracer._left(stack)
            parent.child_ns += busy
            entry = frame.span.acc.get(layer)
            if entry is None:
                entry = frame.span.acc[layer] = [0, 0, 0, 0]
            entry[0] += 1
            entry[1] += busy
            entry[2] += busy - frame.child_ns
            entry[3] += done

    return wrapper


def _span_wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    layer, units = target.layer, target.units

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        token = tracer.open(layer)
        try:
            result = original(*args, **kwargs)
            if units is not None:
                token[2].span.attrs["units"] = units(args, result)
            return result
        finally:
            tracer.close(*token)

    return wrapper


def _map_shards_wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    """``map_shards``: a span, plus what crossed the process boundary."""

    @functools.wraps(original)
    def wrapper(self, blobs, target_time):
        if not tracer.enabled:
            results = original(self, blobs, target_time)
            for result in results:
                result.__dict__.pop("bench_spans", None)
            return results
        token = tracer.open(target.layer)
        frame = token[2]
        try:
            results = original(self, blobs, target_time)
        except BaseException:
            tracer.close(*token)
            raise
        roots = []
        for result in results:
            shipped = result.__dict__.pop("bench_spans", None)
            if shipped:
                tracer.adopt(frame, shipped)
                roots.append((shipped[-1]["start_ns"], shipped[-1]["end_ns"]))
        # Workers run side by side: the part of this call they cover is
        # the union of their intervals, not the sum.
        frame.child_ns += _covered_ns(roots)
        span = tracer.close(*token)
        span.attrs["blob_bytes_out"] = sum(len(blob) for blob in blobs.values())
        span.attrs["worker_busy_s"] = sum(result.elapsed for result in results)
        span.attrs["workers"] = self.workers
        if tracer.probe_state_bytes:
            # Re-pickling is the only way to see the size of what came
            # back; it is accounted as a call of its own so that it does
            # not count as the advance's self time.
            with tracer.span("trace.state_bytes_probe"):
                span.attrs["state_bytes_in"] = sum(
                    len(pickle.dumps(result.state, protocol=pickle.HIGHEST_PROTOCOL))
                    for result in results
                )
        return results

    return wrapper


def _worker_wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    """``_advance_shard``: runs in a pool worker, ships its spans back."""
    in_process = _span_wrapper(tracer, target, original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if os.getpid() == tracer.owner_pid:
            return in_process(*args, **kwargs)  # retry fallback in the parent
        tracer.begin_in_worker()
        token = tracer.open(target.layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(*token)
        result.bench_spans = [span.to_dict() for span in tracer.spans]
        return result

    return wrapper


_SPECIAL = {
    "service.parallel.map_shards": _map_shards_wrapper,
    "service.parallel.worker": _worker_wrapper,
}


@dataclass
class Installed:
    """What :func:`install` changed, so that it can be undone."""

    tracer: Tracer
    patched: List[Tuple[object, str, object]]
    missing: List[str]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []


def resolve(target: Target) -> Tuple[object, str, object]:
    """``(owner, attribute name, the attribute as stored on the owner)``.

    Raises:
        ImportError / AttributeError: When the target no longer exists.
    """
    owner: object = importlib.import_module(target.module)
    *path, name = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def install(targets: Sequence[Target] = TARGETS) -> Installed:
    """Wrap every resolvable target; tracing starts disabled."""
    tracer = Tracer()
    installed = Installed(tracer=tracer, patched=[], missing=[])
    for target in targets:
        try:
            owner, name, stored = resolve(target)
        except (ImportError, AttributeError):
            installed.missing.append(target.layer)
            continue
        if isinstance(stored, (staticmethod, classmethod)):
            installed.missing.append(target.layer)  # not a shape this table wraps
            continue
        make = _SPECIAL.get(target.layer) or (
            _span_wrapper if target.kind == SPAN else _acc_wrapper
        )
        setattr(owner, name, make(tracer, target, stored))
        installed.patched.append((owner, name, stored))
    return installed


# ---------------------------------------------------------------------------
# Reading a trace
# ---------------------------------------------------------------------------


def check_well_formed(spans: Sequence[Span]) -> List[str]:
    """Span-tree defects, as messages (empty when the tree is sound)."""
    by_id = {span.id: span for span in spans}
    problems = []
    for span in spans:
        if span.end_ns < span.start_ns:
            problems.append(f"{span.name}#{span.id}: ends before it starts")
        if span.self_ns < 0:
            problems.append(f"{span.name}#{span.id}: self time {span.self_ns} ns < 0")
        for layer, (_, busy, self_ns, _) in span.acc.items():
            if self_ns < 0 or busy > span.duration_ns:
                problems.append(f"{span.name}#{span.id}: {layer} busy {busy} self {self_ns}")
        if span.parent is None:
            if not span.name.startswith("driver."):
                problems.append(f"{span.name}#{span.id}: no parent")
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"{span.name}#{span.id}: parent {span.parent} not recorded")
        elif parent.round != span.round:
            problems.append(f"{span.name}#{span.id}: round {span.round} under round {parent.round}")
        elif span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
            problems.append(f"{span.name}#{span.id}: not inside {parent.name}#{parent.id}")
    return problems


@dataclass
class Totals:
    """A trace folded by layer name."""

    #: ``layer -> [count, busy_ns, self_ns, units]`` over ACC calls.
    acc: Dict[str, List[int]]
    #: ``layer -> spans`` for SPAN calls.
    spans: Dict[str, List[Span]]

    @classmethod
    def of(cls, spans: Sequence[Span]) -> "Totals":
        acc: Dict[str, List[int]] = {}
        grouped: Dict[str, List[Span]] = {}
        for span in spans:
            grouped.setdefault(span.name, []).append(span)
            for layer, entry in span.acc.items():
                total = acc.setdefault(layer, [0, 0, 0, 0])
                for k in range(4):
                    total[k] += entry[k]
        return cls(acc=acc, spans=grouped)

    def calls(self, layer: str) -> int:
        return self.acc.get(layer, [0])[0]

    def busy_s(self, layer: str) -> float:
        if layer in self.acc:
            return self.acc[layer][1] / 1e9
        return sum(span.duration_ns for span in self.spans.get(layer, ())) / 1e9

    def self_s(self, layer: str) -> float:
        if layer in self.acc:
            return self.acc[layer][2] / 1e9
        return sum(span.self_ns for span in self.spans.get(layer, ())) / 1e9

    def units(self, layer: str) -> int:
        if layer in self.acc:
            return self.acc[layer][3]
        return int(sum(span.attrs.get("units", 0) for span in self.spans.get(layer, ())))

    def per_call(self, layer: str, scale: float) -> float:
        """Mean busy time per call, in units of ``1/scale`` seconds."""
        calls = self.calls(layer) or len(self.spans.get(layer, ()))
        return self.busy_s(layer) * scale / calls if calls else 0.0


#: Figure 6 stage calls and the unit their per-call time is reported in.
STAGE_LAYERS = {
    "core.change_point.detect": "ms",
    "core.went_away.check": "ms",
    "core.seasonality.check": "ms",
    "core.same_regression.check": "us",
    "core.dedup_som.deduplicate": "ms",
    "core.cost_shift.check": "ms",
    "core.dedup_pairwise.process": "ms",
    "core.root_cause.analyze": "ms",
}
_PER_SECOND = {"ms": 1e3, "us": 1e6, "ns": 1e9}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], facts: dict) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: ``name -> (value, unit)``.

    ``facts`` carries what the driver counted or read from the service
    (offered samples, funnel, admission counters, checkpoint sizes …);
    times come from the spans of the timed rounds, raw.
    """
    rounds = facts["rounds"]
    totals = Totals.of([span for span in spans if span.round < rounds])
    spans_of = lambda layer: totals.spans.get(layer, ())  # noqa: E731
    rounds_s = facts["rounds_wall_s"]
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    def per_call(layer: str, unit: str) -> float:
        return totals.per_call(layer, _PER_SECOND[unit])

    def self_per_unit(layer: str, unit: str) -> float:
        return _ratio(totals.self_s(layer) * _PER_SECOND[unit], totals.units(layer))

    posts = [span.duration_ns / 1e9 for span in spans_of("driver.post")]
    wire = "connectors.remote_write"
    put(f"{wire}.requests", len(posts), "count")
    put(f"{wire}.body_bytes", facts["body_bytes"], "bytes")
    put(f"{wire}.post_s_p50", _quantile(posts, 0.50), "s")
    put(f"{wire}.post_s_p95", _quantile(posts, 0.95), "s")
    put(f"{wire}.parse_ns_per_sample", self_per_unit(f"{wire}.parse", "ns"), "ns")
    put(f"{wire}.handler_self_us_per_request",
        _ratio(totals.self_s(f"{wire}.handle") * 1e6, len(posts)), "us")
    put("connectors.mapping.map_ns_per_call", per_call("connectors.mapping.map", "ns"), "ns")

    put("service.router.shard_for_ns_per_call", per_call("service.router.shard_for", "ns"), "ns")
    put("service.router.shard_skew", facts["shard_skew"], "ratio")

    put("service.ingest.offer_ns_per_sample", _ratio(
        totals.self_s("service.ingest.offer") * 1e9, totals.calls("service.ingest.offer")), "ns")
    put("service.ingest.flush_ns_per_sample", self_per_unit("service.ingest.flush", "ns"), "ns")
    put("service.ingest.queue_peak", facts["queue_peak"], "count")
    put("service.ingest.rejected", facts["rejected"], "count")
    put("service.ingest.dropped", facts["dropped"], "count")

    put("quality.admission.admit_ns_per_sample", per_call("quality.admission.admit", "ns"), "ns")
    put("quality.admission.slow_path_share", _ratio(
        totals.calls("quality.admission.admit_slow"), totals.calls("quality.admission.admit")),
        "ratio")
    for counter in ("reordered", "duplicates", "quarantined"):
        put(f"quality.admission.{counter}", facts["admission"].get(counter, 0), "count")

    put("tsdb.write_batch_ns_per_sample", self_per_unit("tsdb.write_batch", "ns"), "ns")
    put("tsdb.view_us_per_window", per_call("tsdb.view", "us"), "us")
    put("tsdb.points_stored", facts["points_stored"], "count")

    screen = "core.incremental.screen_batch"
    put("core.incremental.screen_us_per_series",
        _ratio(totals.busy_s(screen) * 1e6, totals.units(screen)), "us")
    put("core.incremental.hit_rate", facts["incremental_hit_rate"], "ratio")
    put("core.incremental.full_scans", facts["incremental_misses"], "count")

    run_s = totals.busy_s("core.pipeline.run")
    put("core.pipeline.run_ms_per_series", _ratio(run_s * 1e3, facts["monitored"] * rounds), "ms")
    put("core.pipeline.self_share", _ratio(totals.self_s("core.pipeline.run"), run_s), "ratio")
    for layer, unit in STAGE_LAYERS.items():
        stage, call = layer.rsplit(".", 1)
        put(f"{stage}.{call}_{unit}_per_call", per_call(layer, unit), unit)
        put(f"{stage}.calls", totals.calls(layer), "count")
    put("stats.em.ms_per_call", per_call("stats.em", "ms"), "ms")
    put("stats.mann_kendall.ms_per_call", per_call("stats.mann_kendall", "ms"), "ms")
    put("stats.sax.us_per_call", per_call("stats.sax", "us"), "us")
    put("stats.stl.ms_per_call", per_call("stats.stl", "ms"), "ms")
    put("stats.cusum_screen_batch.us_per_row",
        self_per_unit("stats.cusum_screen_batch", "us"), "us")
    for stage, count in facts["funnel"].items():
        put(f"core.pipeline.funnel.{stage}", count, "count")

    put("runtime.scheduler.self_ms_per_scan",
        _ratio(totals.self_s("runtime.scheduler.advance_to") * 1e3, facts["scans"]), "ms")
    put("runtime.scheduler.scans", facts["scans"], "count")
    put("runtime.sinks.deliver_us_per_report", per_call("runtime.sinks.deliver", "us"), "us")
    put("runtime.sinks.reports", facts["reports_delivered"], "count")
    put("service.advance.self_s", totals.self_s("service.advance"), "s")
    put("service.advance.p50_s", _quantile(facts["advance_s"], 0.50), "s")
    put("service.advance.p75_s", _quantile(facts["advance_s"], 0.75), "s")
    put("service.advance.max_s", max(facts["advance_s"], default=0.0), "s")

    fanouts = spans_of("service.parallel.map_shards")
    parallel = "service.parallel"
    put(f"{parallel}.map_shards_s_per_advance",
        _ratio(totals.busy_s(f"{parallel}.map_shards"), len(fanouts)), "s")
    put(f"{parallel}.blob_bytes_out_per_advance",
        _ratio(sum(span.attrs.get("blob_bytes_out", 0) for span in fanouts), len(fanouts)), "bytes")
    put(f"{parallel}.state_bytes_in_per_advance",
        max((span.attrs.get("state_bytes_in", 0) for span in fanouts), default=0), "bytes")
    put(f"{parallel}.worker_busy_s", sum(span.attrs["worker_busy_s"] for span in fanouts), "s")
    # The part of a parallel advance that is not scanning, on the
    # median round: 1 - (worker seconds / workers) / map_shards wall.
    put(f"{parallel}.overhead_share", statistics.median(
        1.0 - span.attrs["worker_busy_s"] / span.attrs["workers"] / (span.duration_ns / 1e9)
        for span in fanouts
    ) if fanouts else 0.0, "ratio")
    put(f"{parallel}.retries", facts["advance_retries"], "count")
    put(f"{parallel}.fallbacks", facts["advance_fallbacks"], "count")

    loads = [span.duration_ns / 1e9 for span in spans if span.name == "service.checkpoint.load"]
    put("service.checkpoint.save_s_p50", _quantile(facts["checkpoint_s"], 0.5), "s")
    put("service.checkpoint.load_s_p50", _quantile(loads, 0.5), "s")
    put("service.checkpoint.bytes", facts["checkpoint_bytes"], "bytes")
    put("service.checkpoint.bytes_per_series",
        _ratio(facts["checkpoint_bytes"], facts["total_series"]), "bytes")
    put("service.recovery.restore_advance_s_p50", _quantile(facts["recovery_s"], 0.5), "s")

    ingest_s = sum(
        totals.busy_s(name) for name in ("driver.post", "driver.ingest_many", "driver.flush")
    )
    put("trace.ingest_share", ingest_s / rounds_s, "ratio")
    put("trace.pipeline_run_share", run_s / rounds_s / facts["workers"], "ratio")
    put("trace.e2e_samples_per_s", facts["samples_offered"] / rounds_s, "1/s")
    put("trace.host_slowdown", facts["host_slowdown"], "ratio")
    return metrics


def _quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
