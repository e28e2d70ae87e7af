"""Seeded inputs for the four end-to-end workloads.

Everything the service will see in a run is built here, from ``--seed``,
before the clock starts: the preload, every round's frame (already
JSON-encoded for the wire workload), the injected regressions the
outputs are scored against, and the counts the dirt is expected to
produce.  The program under test only ever receives these inputs.

The grid is common to all workloads (ISSUE 13): 60 s points, a
54,000 s detection window (900 points), 1,500 s between scans (25 new
points per series per round), four shards.
"""

from __future__ import annotations

import json
import random
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DetectionConfig
from repro.connectors import SeriesMapper
from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange
from repro.fleet.dirty import (
    drop_gaps,
    inject_nan_bursts,
    reorder_within_blocks,
    rollover_counter,
)
from repro.profiling.stacktrace import StackTrace
from repro.service import BackpressurePolicy, Sample
from repro.tsdb import WindowSpec

INTERVAL = 60.0
PRELOAD_POINTS = 900
POINTS_PER_ROUND = 25
N_SHARDS = 4

CONFIG = DetectionConfig(
    name="e2e",
    threshold=5e-5,
    rerun_interval=POINTS_PER_ROUND * INTERVAL,
    windows=WindowSpec(historic=36000, analysis=12000, extended=6000),
    long_term=False,
)

SERVICE_KWARGS = dict(
    n_shards=N_SHARDS,
    queue_capacity=1 << 20,
    backpressure=BackpressurePolicy.BLOCK,
    batch_size=4096,
)

#: A step is reported once it has left the extended window (100 points =
#: 4 rounds) and the next scan has run; one more round is slack.
DETECT_ROUNDS = 6
#: Events sit two rounds apart so PairwiseDedup's time-correlation rule
#: (>= 0.9) cannot merge steps that belong to different events.
EVENT_SPACING = 2
MIN_ROUNDS = 12
MAX_ROUNDS = 40


@dataclass(frozen=True)
class Sizing:
    """How big one workload is, in full and in ``--quick`` form.

    ``seconds_per_round`` is the wall of one timed round, and
    ``fixed_seconds`` that of the work done once (checkpoints, restart
    cycles), as measured on the 2-core reference box at the commit that
    defined the benchmark.  ``--seconds`` is turned into a number of
    rounds with them, so a run does a fixed amount of work — its outputs
    repeat exactly for a seed — that took ``--seconds`` at that commit.
    """

    series: int
    quick_series: int
    seconds_per_round: float
    fixed_seconds: float = 0.0

    def rounds_for(self, seconds: float) -> int:
        wanted = int(round((seconds - self.fixed_seconds) / self.seconds_per_round))
        return max(MIN_ROUNDS, min(MAX_ROUNDS, wanted))


SIZING: Dict[str, Sizing] = {
    "steady_wire": Sizing(series=800, quick_series=200, seconds_per_round=0.76),
    "storm_scan": Sizing(series=360, quick_series=96, seconds_per_round=0.80),
    "dirty_backfill": Sizing(series=1050, quick_series=150, seconds_per_round=0.34),
    "restart_parallel": Sizing(
        series=800, quick_series=160, seconds_per_round=0.53, fixed_seconds=4.0
    ),
}

#: ``restart_parallel`` only: a checkpoint after every this many rounds,
#: and this many restore + first-advance cycles after the last round.
CHECKPOINT_EVERY = 5
RECOVERY_CYCLES = 3
#: ``steady_wire`` only: series per POST body.
SERIES_PER_POST = 80


@dataclass(frozen=True)
class Event:
    """One injected cause: the series it steps, and when.

    An event counts once however many of its series are reported (a
    family of callers stepping together is one regression to a
    developer), and a report is matched to it by ``metric_id`` and a
    change time within one rerun interval of ``time``.
    """

    series: FrozenSet[str]
    time: float
    round: int


@dataclass
class Frame:
    """What one driver call offers: a POST body or an ``ingest_many`` list."""

    offered: int
    refused_by_design: int = 0
    body: Optional[bytes] = None
    samples: Optional[List[Sample]] = None


@dataclass
class Inputs:
    """Everything one run feeds the service, and what it should find."""

    workload: str
    seed: int
    rounds: int
    monitored: int
    total_series: int
    workers: int
    monitor_kwargs: dict
    preload: List[Sample]
    frames: List[List[Frame]]
    events: List[Event]
    wire: bool = False
    checkpoints: bool = False
    expected: Dict[str, int] = field(default_factory=dict)
    #: ``storm_scan`` only: the change that stepped each family series.
    guilty_by_series: Dict[str, str] = field(default_factory=dict)

    @property
    def samples_offered(self) -> int:
        return sum(frame.offered for frames in self.frames for frame in frames)

    def fingerprint(self) -> str:
        """A digest of the generated inputs (``different seed -> different inputs``)."""
        crc = 0
        for frames in self.frames:
            for frame in frames:
                if frame.body is not None:
                    crc = zlib.crc32(frame.body, crc)
                else:
                    points = array("d", [x for s in frame.samples for x in (s.timestamp, s.value)])
                    crc = zlib.crc32(points.tobytes(), crc)
        return f"{crc:08x}"


# ---------------------------------------------------------------------------
# Shared building blocks
# ---------------------------------------------------------------------------


def _event_rounds(rounds: int) -> List[int]:
    """Rounds in which an event may be injected and still be reported."""
    return list(range(1, rounds - DETECT_ROUNDS, EVENT_SPACING))


def _base_values(
    rng: np.random.Generator, n_series: int, n_points: int
) -> Tuple[np.ndarray, np.ndarray]:
    """gCPU-scale levels with 2% noise: ``(values[n_series, n_points], base)``."""
    base = rng.uniform(5e-4, 2e-3, n_series)
    values = rng.normal(base[:, None], 0.02 * base[:, None], (n_series, n_points))
    return values, base


def _inject_steps(
    rng: np.random.Generator,
    values: np.ndarray,
    base: np.ndarray,
    groups: Sequence[Sequence[int]],
    rounds: int,
) -> List[Tuple[Sequence[int], int, int]]:
    """Step each group of rows together; returns ``(rows, round, point)``.

    Groups are spread over the admissible event rounds (several groups
    may share a round when there are more groups than rounds — they then
    form one event).  The offset inside the round is stratified rather
    than drawn, so the median detection delay does not wander with the
    seed.
    """
    slots = _event_rounds(rounds)
    placed = []
    for index, rows in enumerate(groups):
        slot = slots[index % len(slots)]
        offset = (7 * (index % len(slots)) + 3) % POINTS_PER_ROUND
        point = PRELOAD_POINTS + slot * POINTS_PER_ROUND + offset
        for row in rows:
            # Quieter than their neighbours (0.5% noise, not 2%).  With
            # 2% the seasonality stage flips a coin on every stepped
            # series — noise puts a local maximum into the slowly
            # falling ACF of a step, that reads as a period, and each
            # check then pays two 70 ms STL decompositions — and that
            # coin, not the code, decided 30% of a run's advance time
            # (README, "Findings").
            values[row] = rng.normal(base[row], 0.005 * base[row], values.shape[1])
            values[row, point:] += base[row] * rng.uniform(0.2, 0.4)
        placed.append((rows, slot, point))
    return placed


def _pick_stepped(
    rng: np.random.Generator, n_series: int, count: int, n_services: int = 20
) -> List[int]:
    """``count`` rows to step, each in a service of its own.

    PairwiseDedup merges on metric-id text alone at similarity 0.75, and
    two remote-write series of one service share four tokens of five
    (``gcpu.service_svc3.subroutine_sub17``): a second step in a service
    would be folded into the first whatever its timing.
    """
    services = rng.choice(n_services, min(count, n_services), replace=False)
    return [
        int(service + n_services * rng.integers(0, (n_series - service - 1) // n_services + 1))
        for service in services
    ]


def _events_from(
    placed: Sequence[Tuple[Sequence[int], int, int]], names: Sequence[str]
) -> List[Event]:
    """Merge placed groups that share a round into one event per round."""
    by_round: Dict[int, Tuple[set, int]] = {}
    for rows, slot, point in placed:
        members, _ = by_round.setdefault(slot, (set(), point))
        members.update(names[row] for row in rows)
    return [
        Event(frozenset(members), point * INTERVAL, slot)
        for slot, (members, point) in sorted(by_round.items())
    ]


def _samples(
    names: Sequence[str],
    tags: Sequence[dict],
    values: np.ndarray,
    start: int,
    stop: int,
    rows: Optional[Sequence[int]] = None,
) -> List[Sample]:
    """Time-major samples for points ``[start, stop)`` (collector order)."""
    rows = range(len(names)) if rows is None else rows
    columns = {row: values[row, start:stop].tolist() for row in rows}
    return [
        Sample(names[row], (start + k) * INTERVAL, columns[row][k], tags[row])
        for k in range(stop - start)
        for row in rows
    ]


def _native_frames(
    names: Sequence[str], tags: Sequence[dict], values: np.ndarray, rounds: int
) -> List[List[Frame]]:
    frames = []
    for r in range(rounds):
        start = PRELOAD_POINTS + r * POINTS_PER_ROUND
        batch = _samples(names, tags, values, start, start + POINTS_PER_ROUND)
        frames.append([Frame(offered=len(batch), samples=batch)])
    return frames


def _gcpu_identity(n_series: int, n_services: int = 20) -> Tuple[List[str], List[dict]]:
    names = [f"svc{i % n_services}.sub{i}.gcpu" for i in range(n_series)]
    tags = [
        {"service": f"svc{i % n_services}", "metric": "gcpu", "subroutine": f"sub{i}"}
        for i in range(n_series)
    ]
    return names, tags


# ---------------------------------------------------------------------------
# The four workloads
# ---------------------------------------------------------------------------


def steady_wire(seed: int, rounds: int, n_series: int) -> Inputs:
    """Clean, in-order gCPU series pushed as remote-write JSON."""
    rng = np.random.default_rng([seed, 1])
    n_points = PRELOAD_POINTS + rounds * POINTS_PER_ROUND
    values, base = _base_values(rng, n_series, n_points)
    stepped = _pick_stepped(rng, n_series, max(2, n_series // 100))
    placed = _inject_steps(rng, values, base, [[row] for row in stepped], rounds)

    # The receiver names series through its mapper; the preload goes in
    # natively under the same identity so the wire only carries the
    # timed phase.
    mapper = SeriesMapper(source="remote_write")
    labels = [
        {"__name__": "gcpu", "service": f"svc{i % 20}", "subroutine": f"sub{i}"}
        for i in range(n_series)
    ]
    mapped = [mapper.map("gcpu", label) for label in labels]
    names = [m.name for m in mapped]
    tags = [m.tags for m in mapped]
    label_lists = [
        [{"name": key, "value": value} for key, value in label.items()]
        for label in labels
    ]

    frames = []
    for r in range(rounds):
        start = PRELOAD_POINTS + r * POINTS_PER_ROUND
        stamps = [int((start + k) * INTERVAL * 1000) for k in range(POINTS_PER_ROUND)]
        block = values[:, start : start + POINTS_PER_ROUND].tolist()
        posts = []
        for first in range(0, n_series, SERIES_PER_POST):
            rows = range(first, min(first + SERIES_PER_POST, n_series))
            body = json.dumps(
                {
                    "timeseries": [
                        {
                            "labels": label_lists[row],
                            "samples": [
                                {"value": value, "timestamp": stamp}
                                for value, stamp in zip(block[row], stamps)
                            ],
                        }
                        for row in rows
                    ]
                }
            ).encode("utf-8")
            posts.append(Frame(offered=len(rows) * POINTS_PER_ROUND, body=body))
        frames.append(posts)

    return Inputs(
        workload="steady_wire",
        seed=seed,
        rounds=rounds,
        monitored=n_series,
        total_series=n_series,
        workers=1,
        monitor_kwargs={"series_filter": {"metric": "gcpu"}},
        preload=_samples(names, tags, values, 0, PRELOAD_POINTS),
        frames=frames,
        events=_events_from(placed, names),
        wire=True,
    )


def storm_scan(seed: int, rounds: int, n_series: int) -> Inputs:
    """Transients, seasonality and caller families: the Figure 6 tail at work."""
    rng = np.random.default_rng([seed, 2])
    n_points = PRELOAD_POINTS + rounds * POINTS_PER_ROUND
    values, base = _base_values(rng, n_series, n_points)

    n_family_series = (n_series // 5) // 6 * 6
    n_families = n_family_series // 6
    n_seasonal = n_series // 5
    n_quiet = n_series // 10
    n_transient = n_series - n_family_series - n_seasonal - n_quiet

    names: List[str] = []
    tags: List[dict] = []
    traces: List[StackTrace] = []

    # Families first: six callers of one leaf; the leaf's regression
    # lifts every caller's gCPU at the same instant.
    family_rows: List[List[int]] = []
    for f in range(n_families):
        service = f"fam{f}"
        leaf = f"{service}::Leaf::work"
        rows = []
        for k in range(6):
            caller = f"{service}::Caller{k}::handle"
            rows.append(len(names))
            names.append(f"{service}.{caller}.gcpu")
            tags.append({"service": service, "metric": "gcpu", "subroutine": caller})
            traces.append(StackTrace.from_names(["_start", caller, leaf], weight=4.0))
            traces.append(StackTrace.from_names(["_start", caller], weight=2.0))
        family_rows.append(rows)
    for kind, count in (("tr", n_transient), ("sea", n_seasonal), ("q", n_quiet)):
        for i in range(count):
            service = f"{kind}{i % 12}"
            subroutine = f"{service}::Worker{i}::run"
            names.append(f"{service}.{subroutine}.gcpu")
            tags.append({"service": service, "metric": "gcpu", "subroutine": subroutine})

    first_transient = n_family_series
    first_seasonal = first_transient + n_transient
    t = np.arange(n_points)
    for row in range(first_transient, first_seasonal):
        # A spike or dip every few hundred points, gone again within
        # 5..60: went-away's job.
        at = int(rng.integers(0, 200))
        while at < n_points:
            length = int(rng.integers(5, 60))
            depth = base[row] * rng.uniform(0.3, 1.5) * (1.0 if rng.random() < 0.5 else -1.0)
            values[row, at : at + length] += depth
            at += length + int(rng.integers(120, 320))
    for row in range(first_seasonal, first_seasonal + n_seasonal):
        period = int(rng.integers(20, 60))
        amplitude = base[row] * rng.uniform(0.05, 0.3)
        values[row] += amplitude * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
    np.maximum(values, 0.0, out=values)

    placed = _inject_steps(rng, values, base, family_rows, rounds)
    # One family really is seasonal, so that STL has a known amount of
    # work: six series, two decompositions per check, every round from
    # the step's detection until it leaves the analysis window.
    for row in family_rows[0]:
        values[row] += 0.1 * base[row] * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
    changes: List[CodeChange] = []
    guilty_by_series: Dict[str, str] = {}
    for index, (rows, _, point) in enumerate(placed):
        service = f"fam{index}"
        leaf = f"{service}::Leaf::work"
        deploy = point * INTERVAL - 120.0
        guilty = f"D{seed}-{index}-guilty"
        guilty_by_series.update((names[row], guilty) for row in rows)
        changes.append(
            CodeChange(
                change_id=guilty,
                deploy_time=deploy,
                title=f"{service} Leaf work: add per-item validation",
                summary=f"Validate every item inside {leaf} before it is handled by the callers",
                effects=(ChangeEffect(leaf, 1.3),),
            )
        )
        for d in range(2):
            changes.append(
                CodeChange(
                    change_id=f"D{seed}-{index}-decoy{d}",
                    deploy_time=deploy - 600.0 * (d + 1),
                    title=f"Update dashboard strings ({d})",
                    summary="Copy change in an unrelated settings page",
                    effects=(ChangeEffect(f"misc::Settings{index}_{d}::render", 1.0),),
                )
            )

    return Inputs(
        workload="storm_scan",
        seed=seed,
        rounds=rounds,
        monitored=n_series,
        total_series=n_series,
        workers=1,
        monitor_kwargs={
            "series_filter": {"metric": "gcpu"},
            "change_log": ChangeLog(changes),
            "samples": traces,
        },
        preload=_samples(names, tags, values, 0, PRELOAD_POINTS),
        frames=_native_frames(names, tags, values, rounds),
        events=_events_from(placed, names),
        guilty_by_series=guilty_by_series,
    )


def dirty_backfill(seed: int, rounds: int, n_series: int) -> Inputs:
    """The ingest layers used the slow way: reorder, late heads, NaN, resends."""
    rng = np.random.default_rng([seed, 3])
    dirt = random.Random(f"e2e.dirty:{seed}")
    n_points = PRELOAD_POINTS + rounds * POINTS_PER_ROUND
    n_monitored = n_series // 3
    n_gauges = (n_series - n_monitored) // 2
    n_counters = n_series - n_monitored - n_gauges

    values, base = _base_values(rng, n_series, n_points)
    names, tags = _gcpu_identity(n_monitored)
    for i in range(n_gauges):
        names.append(f"edge{i % 10}.route{i}.latency_ms")
        tags.append({"service": f"edge{i % 10}", "metric": "latency_ms"})
    first_counter = n_monitored + n_gauges
    for i in range(n_counters):
        names.append(f"edge{i % 10}.route{i}.requests_total")
        tags.append({"service": f"edge{i % 10}", "metric": "requests", "type": "counter"})
    # Latency in ms; counters integer-valued and cumulative so that
    # admission's rebase reconstructs them bit-exactly.
    values[n_monitored:first_counter] *= 4e4
    values[first_counter:] = np.cumsum(
        rng.integers(1, 50, (n_counters, n_points)), axis=1
    ).astype(float)

    stepped = _pick_stepped(rng, n_monitored, max(2, n_monitored // 50))
    placed = _inject_steps(rng, values, base, [[row] for row in stepped], rounds)

    def pick(population: Sequence[int], share: float) -> List[int]:
        return sorted(dirt.sample(list(population), max(1, int(len(population) * share))))

    everything = range(n_series)
    shuffled = set(pick(everything, 0.10))
    late = set(pick([row for row in everything if row not in shuffled], 0.10))
    nan_rows = pick(everything, 0.02)
    gap_rows = pick(range(n_monitored, first_counter), 0.05)
    rollover_rows = pick(
        [row for row in range(first_counter, n_series) if row not in late], 0.10
    )
    # A re-sent tail must reach the TSDB as a last-write-wins overwrite,
    # not collapse inside a reorder buffer, or flushed < offered would
    # not mean a lost sample: only plain in-order series re-send.
    may_resend = [
        row for row in range(first_counter) if row not in shuffled and row not in late
    ]
    resends = set(pick([(row, r) for row in may_resend for r in range(rounds)], 0.02))

    timed_start = PRELOAD_POINTS
    per_series: List[List[Sample]] = []
    for row in everything:
        stream = _samples(names, tags, values, timed_start, n_points, rows=[row])
        per_series.append(stream)
    for row in rollover_rows:
        per_series[row] = rollover_counter(per_series[row], names[row])
    for row in nan_rows:
        per_series[row] = inject_nan_bursts(
            per_series[row], [names[row]], bursts=2, burst_len=4, seed=seed * 100003 + row
        )
    for row in gap_rows:
        per_series[row] = drop_gaps(
            per_series[row], [names[row]], fraction=0.05, seed=seed * 100003 + row
        )

    nan_total = duplicates = late_points = 0
    round_series: List[List[List[Sample]]] = [[] for _ in range(rounds)]
    carry: Dict[int, List[Sample]] = {}
    for row in everything:
        by_round: List[List[Sample]] = [[] for _ in range(rounds)]
        for sample in per_series[row]:
            point = int(sample.timestamp / INTERVAL) - timed_start
            by_round[point // POINTS_PER_ROUND].append(sample)
        for r, frame in enumerate(by_round):
            if row in shuffled:
                frame = reorder_within_blocks(frame, block=8, seed=seed * 100003 + row * 41 + r)
            held = carry.pop(row, [])
            if row in late and r % 4 == 1 and r + 1 < rounds:
                # The head of this frame misses the flush and arrives
                # behind the next round's points: a backfill merge.
                carry[row], frame = frame[:5], frame[5:]
                late_points += 5
            frame = frame + held
            if (row, r) in resends:
                duplicates += len(frame[-5:])
                frame = frame + frame[-5:]
            round_series[r].append(frame)
    frames = []
    for r in range(rounds):
        # Interleave the per-series frames position by position, the
        # order a collector fan-in would deliver them.
        depth = max(len(frame) for frame in round_series[r])
        batch = [
            frame[k] for k in range(depth) for frame in round_series[r] if k < len(frame)
        ]
        refused = sum(1 for sample in batch if sample.value != sample.value)
        nan_total += refused
        frames.append([Frame(offered=len(batch), refused_by_design=refused, samples=batch)])

    return Inputs(
        workload="dirty_backfill",
        seed=seed,
        rounds=rounds,
        monitored=n_monitored,
        total_series=n_series,
        workers=1,
        monitor_kwargs={"series_filter": {"metric": "gcpu"}},
        preload=_samples(names, tags, values, 0, PRELOAD_POINTS),
        frames=frames,
        events=_events_from(placed, names),
        expected={
            "quarantined": nan_total,
            "duplicates_sent": duplicates,
            "late_points": late_points,
            "counter_resets": len(rollover_rows),
        },
    )


def restart_parallel(seed: int, rounds: int, n_series: int, workers: int = 2) -> Inputs:
    """Quiet series, two worker processes, checkpoints, then restarts."""
    # The last round must end on a checkpoint: that is the state the
    # restarts come back to.
    rounds += -rounds % CHECKPOINT_EVERY
    rng = np.random.default_rng([seed, 4])
    n_points = PRELOAD_POINTS + rounds * POINTS_PER_ROUND
    values, base = _base_values(rng, n_series, n_points)
    names, tags = _gcpu_identity(n_series)
    stepped = _pick_stepped(rng, n_series, max(2, n_series // 50))
    placed = _inject_steps(rng, values, base, [[row] for row in stepped], rounds)
    return Inputs(
        workload="restart_parallel",
        seed=seed,
        rounds=rounds,
        monitored=n_series,
        total_series=n_series,
        workers=workers,
        monitor_kwargs={"series_filter": {"metric": "gcpu"}},
        preload=_samples(names, tags, values, 0, PRELOAD_POINTS),
        frames=_native_frames(names, tags, values, rounds),
        events=_events_from(placed, names),
        checkpoints=True,
    )


BUILDERS = {
    "steady_wire": steady_wire,
    "storm_scan": storm_scan,
    "dirty_backfill": dirty_backfill,
    "restart_parallel": restart_parallel,
}


def build(workload: str, seed: int, seconds: float, quick: bool = False, **overrides) -> Inputs:
    """Generate one workload's inputs for ``--seed`` and ``--seconds``."""
    sizing = SIZING[workload]
    rounds = MIN_ROUNDS if quick else sizing.rounds_for(seconds)
    n_series = sizing.quick_series if quick else sizing.series
    return BUILDERS[workload](seed, rounds, n_series, **overrides)
