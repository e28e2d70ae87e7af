"""The Figure 6 detection pipeline.

One :meth:`DetectionPipeline.run` is one periodic scan: every matching
series in the TSDB is windowed at the reference time and pushed through
the short-term path (change point -> went-away -> seasonality ->
threshold -> SameRegressionMerger) and, when enabled, the long-term path
(STL -> trend regression -> change point -> threshold).  Survivors are
deduplicated by SOMDedup, filtered by cost-shift analysis, deduplicated
again by PairwiseDedup, and finally root-caused.

Figure 6 is an ordered list of filters, and the code is one too: the
per-candidate filters are rows of a stage table (:class:`_Stage`) run by
one loop — the long-term path runs the same table from the threshold row
on — and the collection stages run through a second loop.  Each loop
feeds one :class:`~repro.obs.spans.StageTally` per Table 3 row, the only
ledger of a run: the tallies — inputs, drop reasons and elapsed time
included — are frozen into one :class:`~repro.obs.spans.Span` per stage,
and :attr:`PipelineResult.funnel` ("remaining anomalies after each
technique") is read off the spans' ``outputs``.

A pipeline is configuration, rebuilt from its arguments wherever it is
needed and never pickled.  A run is a function of ``(database, now,
context, state)``: what it reads beside the TSDB is a
:class:`~repro.core.types.ScanContext`, and what it carries to the next
run is the :class:`~repro.core.types.MonitorState` it updates in place.
It holds no registry, trace store or sink and pushes nothing anywhere.
Its spans, run-level counts and block timings come back as one
:class:`~repro.obs.spans.RunTrace` on :attr:`PipelineResult.trace`, and
the caller publishes them (:func:`repro.runtime.scheduler.publish`).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import DetectionConfig
from repro.core.change_point import ChangePointCandidate, ChangePointDetector
from repro.core.cost_shift import CostShiftDetector
from repro.core.dedup_pairwise import PairwiseDedup
from repro.core.dedup_som import SOMDedup
from repro.core.incremental import IncrementalScanCache
from repro.core.long_term import LongTermDetector
from repro.core.planned_changes import PlannedChangeCorrelator
from repro.core.root_cause import RootCauseAnalyzer
from repro.core.same_regression import SameRegressionMerger
from repro.core.seasonality import SeasonalityDetector
from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MetricContext,
    MonitorState,
    PipelineResult,
    Regression,
    RegressionKind,
    ScanContext,
)
from repro.core.went_away import WentAwayDetector
from repro.obs.logging import get_logger
from repro.obs.spans import STAGES, FunnelCounters, RunCounts, RunTrace, StageTally
from repro.quality.gaps import QualityGate
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.series import TimeSeries
from repro.tsdb.windows import WindowedView

__all__ = ["STAGES", "FunnelCounters", "DetectionPipeline"]

# STAGES and FunnelCounters live in repro.obs.spans; re-exported here.

_log = get_logger("repro.core.pipeline")


@dataclass(frozen=True)
class _Stage:
    """One per-candidate filter: a row of the Figure 6 stage table.

    The table is built per run from the pipeline's detectors, its
    ``enable_*`` flags and the run's state
    (:meth:`DetectionPipeline._stage_table`).

    Attributes:
        row: The Table 3 row (span and funnel count) the stage is
            tallied under.
        enabled: A disabled stage passes every candidate, unrecorded.
        check: ``check(regression, candidate)``; the verdict returned is
            appended to the regression's audit trail, ``None`` passes
            the candidate with nothing to record.  ``candidate`` is the
            short-term change point (``None`` on the long-term path).
        counts_survivor: ``False`` for a suppression that is not a
            Table 3 row of its own: its drops tally under ``row``, and a
            pass counts no survivor — the candidate (and the time spent)
            moves on to the next stage of the same row.
    """

    row: str
    enabled: bool
    check: Callable[
        [Regression, Optional[ChangePointCandidate]], Optional[DetectionVerdict]
    ]
    counts_survivor: bool = True


#: The long-term path has no went-away or seasonality stage (§5.3): it
#: runs the stage table from this row on.
_LONG_TERM_JOINS_AT = "threshold"

#: Data-sufficiency floors: a window with fewer points in its baseline
#: or its analysis span is not scanned.
MIN_HISTORIC_POINTS = 12
MIN_ANALYSIS_POINTS = 8

#: Series windowed and scanned per matrix pass: bounds the detection scratch
#: (window snapshots, kernel temporaries) by a constant, not the fleet.  256
#: rows were no faster end to end and cost 2 MB of peak RSS.
SCAN_BLOCK_ROWS = 64


class _Stopwatch:
    """Seconds since the previous :meth:`lap`: one clock read per stage."""

    def __init__(self) -> None:
        self.at = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        seconds, self.at = now - self.at, now
        return seconds


class DetectionPipeline:
    """Wires the Figure 6 stages together for one workload configuration.

    Args:
        config: Workload configuration (Table 1 row).
        series_filter: Optional tag filters selecting which series this
            pipeline scans (e.g. ``{"service": "frontfaas"}``).
        planned_changes: Optional correlator suppressing regressions
            explained by registered planned capacity changes (the
            paper's §8 extension).
        enable_went_away: Ablation switch for the went-away detector.
        enable_seasonality: Ablation switch for the seasonality detector.
        enable_cost_shift: Ablation switch for cost-shift analysis
            (AdServing runs without it, per Table 3).
        incremental: Give each :meth:`new_state` the per-series
            incremental scan cache (:mod:`repro.core.incremental`): a
            CUSUM screen anchored at each full scan makes a repeat scan of
            a quiet series O(new points), not O(window).  Off by default so
            offline analyses stay byte-identical; the service turns it on.
        quality_gate: Optional :class:`~repro.quality.gaps.QualityGate`
            making detection gap-aware: windows whose coverage (points
            present vs the series' own cadence) is below its floor are
            suppressed — mostly-gap windows fire false positives — and
            series that stopped reporting are evicted until they resume
            (:attr:`MonitorState.stale`).  Windows holding a non-finite
            value are never scanned, gate or not.
    """

    def __init__(
        self,
        config: DetectionConfig,
        series_filter: Optional[Dict[str, str]] = None,
        planned_changes: Optional[PlannedChangeCorrelator] = None,
        enable_went_away: bool = True,
        enable_seasonality: bool = True,
        enable_cost_shift: bool = True,
        incremental: bool = False,
        quality_gate: Optional[QualityGate] = None,
    ) -> None:
        self.config = config
        self.series_filter = dict(series_filter or {})
        self.planned_changes = planned_changes
        self.enable_went_away = enable_went_away
        self.enable_seasonality = enable_seasonality
        self.enable_cost_shift = enable_cost_shift
        self.incremental = incremental
        self.quality_gate = quality_gate

        self.change_point_detector = ChangePointDetector()
        self.went_away_detector = WentAwayDetector()
        self.seasonality_detector = SeasonalityDetector(
            known_period=config.seasonality_period
        )
        self.same_regression_merger = SameRegressionMerger(
            time_tolerance=max(config.rerun_interval, 3600.0)
        )
        self.som_dedup = SOMDedup()
        self.pairwise_dedup = PairwiseDedup()
        self.root_cause_analyzer = RootCauseAnalyzer()
        self.long_term_detector = LongTermDetector(
            threshold=config.threshold if not config.relative_threshold else 0.0,
            known_period=config.seasonality_period,
        )

    def new_state(self) -> MonitorState:
        """A monitor's state before its first scan."""
        staleness = self.config.windows.analysis
        return MonitorState(IncrementalScanCache(staleness) if self.incremental else None)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(
        self,
        database: TimeSeriesDatabase,
        now: float,
        context: Optional[ScanContext] = None,
        state: Optional[MonitorState] = None,
    ) -> PipelineResult:
        """One periodic detection scan at reference time ``now``, updating
        ``state`` in place (by default a fresh one: the run is a one-off)."""
        context = context if context is not None else ScanContext()
        state = state if state is not None else self.new_state()
        # The run's only ledger: one tally per Table 3 row, and beside
        # them the run-level counts and block timings.  Funnel counts,
        # spans and what the caller publishes are all read off it.
        tallies = {stage: StageTally() for stage in STAGES}
        counts = RunCounts()
        timings: Dict[str, float] = {}
        block = _Stopwatch()

        candidates = self._detect(database, now, state, tallies, counts)
        timings["pipeline.stage.detect_seconds"] = block.lap()

        alive = [c for c in candidates if not c.verdicts or c.verdicts[-1].passed]
        for name, enabled, apply, drop_reason in self._collection_stages(
            database, context, state
        ):
            kept = apply(alive) if enabled else alive
            seconds = timings[f"pipeline.stage.{name}_seconds"] = block.lap()
            if drop_reason is not None:
                tallies[name].bulk(len(alive), len(kept), drop_reason.value, seconds)
            alive = kept
        reported = alive

        counts.inc("pipeline.candidates", len(candidates))
        counts.inc("pipeline.reported", len(reported))
        if reported and _log.isEnabledFor(logging.INFO):
            for regression in reported:
                _log.info(
                    "regression reported",
                    series=regression.context.metric_id,
                    monitor=self.config.name,
                    magnitude=regression.magnitude,
                    change_time=regression.change_time,
                    detected_at=now,
                )

        return PipelineResult(
            reported=reported,
            all_candidates=candidates,
            now=now,
            trace=RunTrace(
                monitor=self.config.name,
                now=now,
                spans=tuple(tallies[stage].freeze(stage) for stage in STAGES),
                counts=counts,
                timings=timings,
            ),
        )

    # ------------------------------------------------------------------
    # Stage tables
    # ------------------------------------------------------------------

    def _stage_table(
        self, went_away: Dict[int, DetectionVerdict], state: MonitorState
    ) -> Tuple[_Stage, ...]:
        """The per-candidate filters of Figure 6, in order.  Went-away is judged a
        block at a time (:meth:`_went_away`): its row pops the regression's verdict."""
        return (
            _Stage("went_away", self.enable_went_away, lambda r, _: went_away.pop(id(r))),
            _Stage(
                "seasonality",
                self.enable_seasonality,
                lambda regression, candidate: self.seasonality_detector.check(
                    regression.window, candidate
                ),
            ),
            _Stage("threshold", True, self._check_threshold),
            # Planned-change suppression is not a Table 3 row: a drop is
            # tallied under same_regression so the span still accounts
            # for every candidate that left the threshold stage alive.
            _Stage(
                "same_regression",
                self.planned_changes is not None,
                lambda regression, candidate: self.planned_changes.check(regression),
                counts_survivor=False,
            ),
            _Stage(
                "same_regression",
                True,
                lambda regression, candidate: self.same_regression_merger.check(
                    regression, state
                ),
            ),
        )

    def _check_threshold(
        self, regression: Regression, candidate: Optional[ChangePointCandidate]
    ) -> Optional[DetectionVerdict]:
        """Drop a shift below the workload's Δ.

        On the long-term path absolute thresholds were enforced inside
        the detector; relative ones (which need the baseline) bite here.
        """
        if self.config.exceeds_threshold(regression.magnitude, regression.mean_before):
            return None
        path = "long-term " if regression.kind is RegressionKind.LONG_TERM else ""
        return DetectionVerdict.drop(
            FilterReason.BELOW_THRESHOLD,
            detail=(
                f"{path}magnitude {regression.magnitude:.3g} below "
                f"threshold {self.config.threshold:.3g}"
            ),
        )

    def _collection_stages(
        self, database: TimeSeriesDatabase, context: ScanContext, state: MonitorState
    ) -> tuple:
        """The stages that see all survivors at once, in order.

        Rows are ``(name, enabled, apply, drop_reason)``: ``apply`` maps
        the live regressions to those the stage keeps, ``drop_reason``
        labels the rest in the stage's span (``None``: not a Table 3
        row).
        """

        def som_representatives(alive: List[Regression]) -> List[Regression]:
            groups = self.som_dedup.deduplicate(alive, context, state)
            return [g.representative for g in groups if g.representative]

        def cost_shift_survivors(alive: List[Regression]) -> List[Regression]:
            cost_shift = CostShiftDetector(database)
            kept: List[Regression] = []
            for regression in alive:
                verdict = cost_shift.check(regression, context)
                regression.record(verdict)
                if verdict.passed:
                    kept.append(regression)
            return kept

        def pairwise_openers(alive: List[Regression]) -> List[Regression]:
            # Against groups from prior runs as well as this one's.
            self.pairwise_dedup.process(alive, context, state)
            return [r for r in alive if r.verdicts and r.verdicts[-1].passed]

        def root_caused(alive: List[Regression]) -> List[Regression]:
            # One list is both the before and the after samples until the
            # context's samples are sliced at the change time (ROADMAP 3(b)).
            samples = context.samples
            for regression in alive:
                self.root_cause_analyzer.analyze(regression, context.change_log, samples, samples)
            return alive

        return (
            ("som_dedup", True, som_representatives, FilterReason.SOM_DUPLICATE),
            ("cost_shift", self.enable_cost_shift, cost_shift_survivors,
             FilterReason.COST_SHIFT),
            ("pairwise_dedup", True, pairwise_openers, FilterReason.PAIRWISE_DUPLICATE),
            ("root_cause", True, root_caused, None),
        )

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def _detect(
        self,
        database: TimeSeriesDatabase,
        now: float,
        state: MonitorState,
        tallies: Dict[str, StageTally],
        counts: RunCounts,
    ) -> List[Regression]:
        """Change points of every matching series, run through the table.

        Returns every candidate turned regression, each carrying the
        verdicts of the stages it reached.
        """
        detected = tallies["change_points"]
        # Pass 1: staleness eviction, before any screen state is touched
        # (an evicted series must cost nothing and fold nothing).
        scannable = self._matching_series(database)
        if self.quality_gate is not None:
            fresh = [s for s in scannable if not self._evict_if_stale(s, now, state.stale, counts)]
            if len(fresh) < len(scannable):
                detected.bulk(len(scannable) - len(fresh), 0, "stale_series", 0.0)
            scannable = fresh
        # Pass 2: one vectorized screen over every scannable series —
        # thousands of per-series CUSUM folds become a few array ops.
        cache = state.cache
        decisions: Optional[Dict[str, bool]] = None
        if cache is not None:
            hits = cache.hits
            decisions = cache.screen_batch(scannable, now)
            # A hit: no shift in the new points, and the previous full scan
            # found nothing.  Hits are tallied in bulk and untimed (that
            # path is O(new points)).  The cache's own hits / misses are
            # the one count of these decisions (``/metrics`` folds them).
            if cache.hits > hits:
                detected.bulk(cache.hits - hits, 0, "cache_hit", 0.0)
        # Pass 3: full windowed scans where the screen demanded one, a
        # block of series at a time — windowed and gated per series, the
        # block's short-term scans as one matrix pass and its candidates'
        # went-away as one row pass, then, in series order, what is per
        # candidate and order-dependent (the merger is stateful).  Each
        # pass's seconds reach its tally on the next lap, so the spans
        # still account for the block.
        went_away: Dict[int, DetectionVerdict] = {}
        stages = self._stage_table(went_away, state)
        long_term = self.config.long_term
        joins = [stage.row for stage in stages].index(_LONG_TERM_JOINS_AT)
        long_term_stages = stages[joins:]
        watch = _Stopwatch()
        candidates: List[Regression] = []
        block: List[Tuple[TimeSeries, WindowedView, bool]] = []

        def admit(found: Optional[tuple], path: Tuple[_Stage, ...]) -> None:
            if found is None:
                detected.observe(False, "no_change_point", watch.lap())
                return
            detected.observe(True, seconds=watch.lap())
            regression, candidate = found
            candidates.append(regression)
            self._run_stages(regression, candidate, path, tallies, watch)

        def flush() -> None:
            scanned = [(series, windowed) for series, windowed, short in block if short]
            hits = iter(self._change_points(scanned, now, cache, counts))
            found = [
                self._short_term(series, now, windowed, next(hits)) if short else None
                for series, windowed, short in block
            ]
            self._went_away(found, went_away, tallies, watch)
            for (series, windowed, short_term), short in zip(block, found):
                if short_term:
                    admit(short, stages)
                if long_term:
                    admit(self._long_term(series, now, windowed), long_term_stages)
            block.clear()

        for series in scannable:
            short_term = decisions is None or decisions[series.name]
            if not short_term and not long_term:
                continue
            # Windowed and gated once per series, whichever paths run: a
            # bad window is one skip, not one per path, and never reaches
            # the matrix, so it cannot seed the incremental screen.
            windowed = self.config.windows.view(series, now)
            skip = self._window_skip_reason(windowed, counts)
            if skip is not None:
                detected.observe(False, skip, watch.lap())
                continue
            block.append((series, windowed, short_term))
            if len(block) == SCAN_BLOCK_ROWS:
                flush()
        flush()
        return candidates

    @staticmethod
    def _run_stages(
        regression: Regression,
        candidate: Optional[ChangePointCandidate],
        stages: Sequence[_Stage],
        tallies: Dict[str, StageTally],
        watch: _Stopwatch,
    ) -> None:
        """The one stage loop: check, record the verdict, tally once,
        and stop at the first drop."""
        for stage in stages:
            verdict = stage.check(regression, candidate) if stage.enabled else None
            if verdict is not None:
                regression.record(verdict)
            passed = verdict is None or verdict.passed
            if passed and not stage.counts_survivor:
                continue
            reason = None if passed or verdict.reason is None else verdict.reason.value
            tallies[stage.row].observe(passed, reason, watch.lap())
            if not passed:
                return

    def _went_away(self, found: list, verdicts: dict, tallies: dict, watch: _Stopwatch) -> None:
        """Went-away (§5.2.2) over a block's short-term candidates as one
        row pass; the stage table reads the verdicts.  The block's windows
        and matrix pass are lapped onto the change-point tally first."""
        regressions = [pair[0] for pair in found if pair is not None]
        if not self.enable_went_away or not regressions:
            return
        tallies["change_points"].bulk(0, 0, "no_change_point", watch.lap())
        windows = [regression.window for regression in regressions]
        diagnoses = self.went_away_detector.diagnose_rows(
            [w.historic for w in windows], [w.analysis for w in windows],
            [w.extended for w in windows], [r.change_index for r in regressions],
        )
        verdicts.update((id(r), d.verdict()) for r, d in zip(regressions, diagnoses))
        tallies["went_away"].bulk(0, 0, FilterReason.WENT_AWAY.value, watch.lap())

    def _matching_series(self, database: TimeSeriesDatabase) -> List[TimeSeries]:
        if self.series_filter:
            return database.query(**self.series_filter)
        return list(database)

    def _evict_if_stale(
        self, series: TimeSeries, now: float, stale: Set[str], counts: RunCounts
    ) -> bool:
        """Track in ``stale`` and report whether ``series`` stopped reporting.

        A stale series is evicted from scheduling until it resumes: a
        dead host must cost nothing per tick and never alert.  Its last
        sample is the last one stamped before ``now`` — the cut a window
        at ``now`` holds — however far ingest runs ahead of the clock.
        """
        stamps, analysis = series._timestamps, self.config.windows.analysis
        n = len(stamps)
        if n and stamps.get(-1) >= now:  # the tail runs ahead of the clock
            n = stamps.searchsorted(now)
        if n:
            stopped = self.quality_gate.is_stale(stamps.get(n - 1), now, analysis)
        else:  # not started yet, or trimmed away while evicted
            stopped = series.name in stale
        if stopped:
            if series.name not in stale:
                stale.add(series.name)
                counts.inc("pipeline.quality.stale_evictions")
            counts.inc("pipeline.quality.stale_skips")
            return True
        stale.discard(series.name)
        return False

    def _window_skip_reason(self, windowed: WindowedView, counts: RunCounts) -> Optional[str]:
        """Why a scan window must not be scanned, or ``None`` when it may.

        A window needs the data-sufficiency floors; non-finite values
        anywhere in it always suppress the scan (NaN poisons every
        downstream statistic); with a quality gate attached, windows
        whose coverage falls below the gate's floor are suppressed too.
        Suppressions are counted and traced, never alerted.
        """
        if not windowed.has_minimum_data(MIN_HISTORIC_POINTS, MIN_ANALYSIS_POINTS):
            return "insufficient_data"
        if not np.isfinite(windowed.values).all():
            counts.inc("pipeline.quality.non_finite_skips")
            return "non_finite_window"
        if self.quality_gate is not None:
            ok, _ = self.quality_gate.window_ok(
                windowed.times[: windowed.analysis_at], int(windowed.analysis.size),
                windowed.analysis_start, windowed.extended_start,
            )
            if not ok:
                counts.inc("pipeline.quality.low_coverage_skips")
                return "low_quality_window"
        return None

    def _oriented(self, values: np.ndarray) -> np.ndarray:
        """Map values so that an increase always means a regression."""
        return values if self.config.higher_is_worse else -values

    def _change_points(
        self, scanned: Sequence[Tuple[TimeSeries, WindowedView]], now: float,
        cache: Optional[IncrementalScanCache], counts: RunCounts,
    ) -> List[Optional[ChangePointCandidate]]:
        """CUSUM+EM+LRT (§5.2.1) over the analysis windows of a block of
        series — stacked by length, never padded, one row-wise pass per
        stack — and their re-anchor; a candidate or ``None`` per series."""
        found: List[Optional[ChangePointCandidate]] = [None] * len(scanned)
        if not scanned:
            return found
        means, stds = np.empty(len(scanned)), np.empty(len(scanned))
        stacks: Dict[int, List[int]] = {}
        for i, (_, windowed) in enumerate(scanned):
            stacks.setdefault(windowed.analysis.size, []).append(i)
        exact = 0
        for length, members in stacks.items():
            raw = np.concatenate([scanned[i][1].analysis for i in members])
            raw = raw.reshape(len(members), length)
            hits, undecided = self.change_point_detector.detect_rows(
                self._oriented(raw), increases_only=True
            )
            exact += undecided
            for i, hit in zip(members, hits):
                found[i] = hit
            # Anchor on the *raw* values: the screen folds raw tail values
            # in and is two-sided, so a sign-flipped reference would fire
            # it on every quiet lower-is-worse series.
            means[members], stds[members] = raw.mean(axis=1), raw.std(axis=1)
        counts.inc("pipeline.full_scan.rows", len(scanned))
        counts.inc("pipeline.full_scan.exact_lrt", exact)
        if cache is not None:
            cache.record_full_scans(
                [series for series, _ in scanned], now, means, stds,
                [hit is not None for hit in found],
            )
        return found

    def _short_term(
        self, series: TimeSeries, now: float, windowed: WindowedView,
        candidate: Optional[ChangePointCandidate],
    ) -> Optional[Tuple[Regression, ChangePointCandidate]]:
        """The regression behind a short-term change point, if any."""
        if candidate is None:
            return None
        view = self._oriented_view(windowed)
        regression = Regression(
            context=MetricContext.from_tags(series.name, series.tags),
            kind=RegressionKind.SHORT_TERM,
            change_index=candidate.index,
            change_time=float(windowed.times[windowed.analysis_at + candidate.index]),
            mean_before=candidate.mean_before,
            mean_after=candidate.mean_after,
            window=view,
            detected_at=now,
        )
        return regression, candidate

    def _long_term(
        self, series: TimeSeries, now: float, windowed: WindowedView
    ) -> Optional[Tuple[Regression, None]]:
        """STL trend regression over the whole window (§5.3)."""
        regression = self.long_term_detector.detect(
            self._oriented_view(windowed),
            MetricContext.from_tags(series.name, series.tags),
            detected_at=now,
        )
        return None if regression is None else (regression, None)

    def _oriented_view(self, w: WindowedView) -> WindowedView:
        """Apply metric orientation to a windowed view."""
        return w if self.config.higher_is_worse else replace(w, values=-w.values)
