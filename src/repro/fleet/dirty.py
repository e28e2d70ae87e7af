"""Dirty-data scenarios: fleet streams with real-world collection damage.

The fleet simulator emits pristine streams; production collectors do
not.  This module damages a clean sample stream the way the fleet
actually damages one — host restarts dropping samples, clock-skewed
hosts shipping out-of-order batches, collectors emitting NaN bursts,
counters wrapping on process restart — so drills can assert that the
admission layer (:mod:`repro.quality`) absorbs the damage without
changing detection outcomes.

Every transform is deterministic under its seed and is written to be
*reconstructible* by admission:

- :func:`reorder_within_blocks` permutes delivery order only; every
  point still arrives, so the TSDB contents after the reordering
  buffer's backfill merge are identical to the clean run's.
- :func:`inject_nan_bursts` adds **extra** NaN points rather than
  overwriting real ones; admission quarantines them and the TSDB never
  sees them.
- :func:`rollover_counter` rewrites a cumulative counter's tail as if
  the process restarted (raw values re-based to the restart); admission's
  reset rebasing reconstructs the exact original cumulative series when
  the counter's values are integers (float subtraction is exact there).
- :func:`drop_gaps` genuinely loses points — the one damage that cannot
  be repaired, only *suppressed* by the coverage gate — so drills apply
  it to series that are not expected to alert.

Transforms duck-type the sample: anything that is a dataclass with
``name`` / ``timestamp`` / ``value`` / ``tags`` fields works (the
streaming service's ``Sample`` is the usual one), keeping this module
free of any ``repro.service`` import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "DirtyDataSpec",
    "dirty_stream",
    "drop_gaps",
    "inject_nan_bursts",
    "reorder_within_blocks",
    "rollover_counter",
]

#: Which of a series' points :func:`rollover_counter` restarts the counter
#: at; ``None`` takes the midpoint.
ROLLOVER_AT: Optional[int] = None


def reorder_within_blocks(
    samples: Sequence[Any],
    block: int = 8,
    seed: int = 0,
) -> List[Any]:
    """Shuffle delivery order inside consecutive blocks of ``block``.

    Models a clock-skewed host shipping a batch late: arrival order is
    scrambled locally but no point is lost and no point moves further
    than one block.  Per series, at most ``block`` points are ever
    pending in the admission reordering buffer, so a buffer bound of
    ``block`` or more backfills without overflow (overflow is still
    correct, just batchier).

    Args:
        samples: The clean stream, in delivery order.
        block: Block size; must be >= 1.
        seed: Shuffle seed.

    Returns:
        A new list, same points, locally permuted order.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    rng = random.Random(f"repro.fleet.dirty.reorder:{seed}")
    out: List[Any] = []
    for start in range(0, len(samples), block):
        chunk = list(samples[start:start + block])
        rng.shuffle(chunk)
        out.extend(chunk)
    return out


def inject_nan_bursts(
    samples: Sequence[Any],
    series: Sequence[str],
    bursts: int = 3,
    burst_len: int = 4,
    seed: int = 0,
) -> List[Any]:
    """Insert bursts of **extra** NaN points into the named series.

    Models a collector emitting garbage for a few intervals.  The NaN
    points duplicate the timestamps of real points but carry no
    information — admission quarantines every one, so the TSDB after
    the dirty run is identical to the clean run's.

    Args:
        samples: The clean stream.
        series: Names to damage; each gets ``bursts`` bursts.
        bursts: Bursts per damaged series.
        burst_len: Consecutive NaN points per burst.
        seed: Placement seed.

    Returns:
        A new list with the NaN extras inserted after their anchors.
    """
    rng = random.Random(f"repro.fleet.dirty.nan:{seed}")
    targets = set(series)
    # Positions of each damaged series' points in the stream.
    positions = {
        name: [i for i, s in enumerate(samples) if s.name == name]
        for name in targets
    }
    nan_after = set()
    for name, slots in positions.items():
        if not slots:
            continue
        for _ in range(bursts):
            anchor = rng.randrange(len(slots))
            for offset in range(burst_len):
                if anchor + offset < len(slots):
                    nan_after.add(slots[anchor + offset])
    out: List[Any] = []
    for index, sample in enumerate(samples):
        out.append(sample)
        if index in nan_after:
            out.append(replace(sample, value=math.nan))
    return out


def drop_gaps(
    samples: Sequence[Any],
    series: Sequence[str],
    fraction: float = 0.05,
    seed: int = 0,
) -> List[Any]:
    """Silently drop a fraction of the named series' points.

    Models host restarts losing samples.  Unlike the other transforms
    this one is lossy by construction — the coverage gate, not repair,
    is the defense — so drills should aim it at series that are not
    expected to alert.

    Args:
        samples: The clean stream.
        series: Names to damage.
        fraction: Per-point drop probability, in [0, 1].
        seed: Drop seed.

    Returns:
        A new list with the dropped points removed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = random.Random(f"repro.fleet.dirty.gap:{seed}")
    targets = set(series)
    return [
        sample
        for sample in samples
        if sample.name not in targets or rng.random() >= fraction
    ]


def rollover_counter(samples: Sequence[Any], series: str) -> List[Any]:
    """Restart a cumulative counter mid-stream.

    From the :data:`ROLLOVER_AT`-th point of ``series`` onward (by
    default the midpoint), raw values are re-based to the last pre-restart value —
    the counter drops toward zero exactly as a restarted process's
    would.  Admission's reset detection rebases the tail by that same
    last-raw value, so for integer-valued counters the reconstructed
    cumulative series is bit-exact with the clean run's.

    Args:
        samples: The clean stream.
        series: The counter series to restart (its samples should carry
            ``tags["type"] == "counter"`` for admission to repair it).

    Returns:
        A new list with the tail of ``series`` re-based.
    """
    slots = [i for i, s in enumerate(samples) if s.name == series]
    if len(slots) < 2:
        return list(samples)
    cut = ROLLOVER_AT if ROLLOVER_AT is not None else len(slots) // 2
    if not 1 <= cut < len(slots):  # at least one point before the restart
        raise ValueError(
            f"ROLLOVER_AT must be in [1, {len(slots) - 1}] for {series!r}"
        )
    base = samples[slots[cut - 1]].value  # last value the old process saw
    out = list(samples)
    for slot in slots[cut:]:
        out[slot] = replace(out[slot], value=out[slot].value - base)
    return out


@dataclass(frozen=True)
class DirtyDataSpec:
    """One dirty-data drill: which damage to apply to a clean stream.

    Attributes:
        seed: Master seed; each transform derives its own stream.
        reorder_block: Local shuffle block (0 disables reordering).
        nan_series: Series receiving NaN bursts.
        nan_bursts: Bursts per damaged series.
        nan_burst_len: Points per burst.
        gap_series: Series losing points (aim at non-alerting series).
        gap_fraction: Per-point drop probability for ``gap_series``.
        rollover_series: Cumulative counters restarted at midpoint.
    """

    seed: int = 0
    reorder_block: int = 8
    nan_series: Tuple[str, ...] = ()
    nan_bursts: int = 3
    nan_burst_len: int = 4
    gap_series: Tuple[str, ...] = ()
    gap_fraction: float = 0.05
    rollover_series: Tuple[str, ...] = ()


def dirty_stream(samples: Sequence[Any], spec: DirtyDataSpec) -> List[Any]:
    """Apply a :class:`DirtyDataSpec` to a clean stream.

    Damage lands in collector order — value damage first (rollover, NaN
    bursts, gaps), then delivery-order damage (reordering) over the
    whole result, exactly as a skewed host would ship already-damaged
    batches late.
    """
    stream: List[Any] = list(samples)
    for name in spec.rollover_series:
        stream = rollover_counter(stream, name)
    if spec.nan_series:
        stream = inject_nan_bursts(
            stream, spec.nan_series,
            bursts=spec.nan_bursts, burst_len=spec.nan_burst_len,
            seed=spec.seed,
        )
    if spec.gap_series:
        stream = drop_gaps(
            stream, spec.gap_series,
            fraction=spec.gap_fraction, seed=spec.seed,
        )
    if spec.reorder_block:
        stream = reorder_within_blocks(
            stream, block=spec.reorder_block, seed=spec.seed,
        )
    return stream
