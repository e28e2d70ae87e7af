"""Shadow mode: challenger detectors that score but never alert.

A :class:`ShadowScorer` rides inside a pipeline and is invoked once per
full (cache-miss) short-term scan with the same oriented window segments
the incumbent just scanned.  Each registered challenger scores the
window; the verdicts land in per-detector :class:`ShadowTally` funnels —
and **nothing else**.  Shadow scoring never touches delivery, the
reported ledger, or the primary funnel, which is what makes the primary
report byte-identical with or without challengers registered.

State contract: the scorer holds only detectors and integer tallies, so
it pickles with the scheduler it lives in — shadow tallies therefore
ride shard checkpoints and parallel-advance worker round-trips for free,
and accrue exactly once per scan on both the serial and parallel paths.
A tally is the one home of its counts: ``/metrics`` serves
``detector.{id}.{scans,fired,errors}`` by folding the tallies over
shards (:mod:`repro.service.views`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.detectors.base import Detector, DetectorWindow

__all__ = ["ShadowScorer", "ShadowTally", "merge_snapshot_rows"]


@dataclass
class ShadowTally:
    """Per-detector funnel of shadow verdicts.

    ``agree_fired``/``shadow_only``/``primary_only``/``both_quiet``
    partition the scans by (challenger fired?, incumbent fired?) so an
    operator can read precision-against-incumbent straight off the
    ``/detectors`` endpoint.
    """

    scans: int = 0
    fired: int = 0
    errors: int = 0
    agree_fired: int = 0
    shadow_only: int = 0
    primary_only: int = 0
    both_quiet: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def merge(self, other: "ShadowTally") -> None:
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)


class ShadowScorer:
    """Runs challenger detectors beside the incumbent, alert-inert.

    Args:
        detectors: Challenger instances; their param-hash IDs must be
            unique (two challengers with identical type+version+params
            would tally indistinguishably — reject early instead).
    """

    def __init__(self, detectors: Sequence[Detector]) -> None:
        self.detectors: List[Detector] = list(detectors)
        seen: Dict[str, Detector] = {}
        for detector in self.detectors:
            det_id = detector.detector_id
            if det_id in seen:
                raise ValueError(f"duplicate shadow detector id: {det_id}")
            seen[det_id] = detector
        self.tallies: Dict[str, ShadowTally] = {
            det_id: ShadowTally() for det_id in seen
        }

    @property
    def detector_ids(self) -> List[str]:
        return sorted(self.tallies)

    def score(
        self,
        historic: np.ndarray,
        analysis: np.ndarray,
        extended: np.ndarray,
        primary_fired: bool,
    ) -> None:
        """Score one scan's window with every challenger.

        Called by the pipeline on the scan hot path — a challenger that
        raises is tallied as an error and skipped; shadow scoring can
        never take the primary scan down with it.
        """
        window = DetectorWindow(
            historic=historic, analysis=analysis, extended=extended
        )
        for detector in self.detectors:
            det_id = detector.detector_id
            tally = self.tallies[det_id]
            tally.scans += 1
            try:
                decision = detector.scan(window)
            except Exception:
                tally.errors += 1
                continue
            if decision.fired:
                tally.fired += 1
            if decision.fired and primary_fired:
                tally.agree_fired += 1
            elif decision.fired:
                tally.shadow_only += 1
            elif primary_fired:
                tally.primary_only += 1
            else:
                tally.both_quiet += 1

    def snapshot_rows(self) -> List[dict]:
        """Per-detector rows: identity + funnel tally, id-sorted."""
        rows = []
        for detector in sorted(self.detectors, key=lambda d: d.detector_id):
            row = detector.describe()
            row["tally"] = self.tallies[detector.detector_id].as_dict()
            rows.append(row)
        return rows


def merge_snapshot_rows(
    accumulator: Dict[str, dict], rows: Iterable[dict]
) -> None:
    """Merge shard-local snapshot rows into ``accumulator`` keyed by id.

    Identity fields come from the first row seen for an id; tally fields
    sum.  Used by the scheduler/service aggregation behind
    ``/detectors``.
    """
    for row in rows:
        existing = accumulator.get(row["id"])
        if existing is None:
            accumulator[row["id"]] = {
                **{key: row[key] for key in ("id", "type", "version", "params")},
                "tally": dict(row["tally"]),
            }
        else:
            for key, value in row["tally"].items():
                existing["tally"][key] = existing["tally"].get(key, 0) + value
