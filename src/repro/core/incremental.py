"""Incremental detector state: the per-series scan cache.

At production scale FBDetect re-scans ~800k subroutine series every
cycle; most of them are quiet most of the time, yet the offline
CUSUM+EM+LRT detector pays O(W) per series per scan regardless.  This
module makes repeat scans cheap: a per-series two-sided CUSUM screen
(:func:`~repro.stats.incremental.cusum_screen_batch`) is anchored on
the analysis window whenever a full scan runs, and subsequent scans fold
in only the points that arrived since — O(n) for n new points.  The full
detector re-runs only when something could plausibly have changed:

- the screen fired (evidence of a mean shift in the new points),
- the previous full scan produced a change-point candidate (its
  lifecycle — merger suppression, went-away — needs the full pipeline),
- the window drifted a full analysis span past the anchor (bounds the
  approximation: a skip is only ever based on a window that still
  overlaps the anchored one),
- or history was rewritten under the anchor (a backfill, or a
  retention trim past the anchored end), which invalidates the anchor
  outright.  A trim that drops only samples before the anchored end
  leaves the anchor valid: it re-bases on the end's new position.

One cut: the screen folds, and anchors on, exactly the samples a window
ending at ``now`` holds — those stamped before ``now``
(:meth:`~repro.tsdb.windows.WindowSpec.view` bisects the same bound).
Samples that landed ahead of the clock wait for the scan whose window
reaches them, so a decision depends on the stored history, never on
how far ingest ran ahead of the scheduler.

The screen's contract, in reference standard deviations σ of the
anchored analysis window: a sustained shift of δσ with δ >
:data:`SCREEN_DRIFT` raises the evidence by δ − SCREEN_DRIFT per
point, so a noiseless one fires the screen after
⌈SCREEN_THRESHOLD / (δ − SCREEN_DRIFT)⌉ points (5 at δ = 2).  A shift
of at most SCREEN_DRIFT σ never fires it: such a series is fully
scanned only when its anchor goes stale, at most ``max_staleness``
after its last full scan.

Storage layout: anchors live in a struct-of-arrays — one row per series
across parallel numpy columns (anchor bounds, reference moments, screen
evidence), indexed by a name→row dict.  :meth:`screen_batch` is the
shard-advance hot path: the only per-series Python work is the row
lookup, the append-only validation, and collecting the tail view; the
screen fold, state writeback, scan decisions, and counters are all whole-
batch array ops.  Screening thousands of series costs a handful of
``(k, n)`` kernels instead of ~10 interpreter operations per series.

Checkpoint semantics: the cache pickles with its monitor's state — in
every parallel round trip and in every checkpoint — with columns compacted
to the live rows.  Wherever it lands, its anchors are trusted by one
per-series rule: the anchored end timestamp is still stored before
``now``, at ``anchor_len - 1`` or — samples before it retired by
retention — earlier, where the anchor re-bases.  A restored service
keeps the anchors its checkpoint carried, and its first advance is an
ordinary screened one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.incremental import cusum_screen_batch
from repro.tsdb.series import TimeSeries

__all__ = ["IncrementalScanCache", "SCREEN_DRIFT", "SCREEN_THRESHOLD"]

_MIN_ROWS = 8

#: The screen's CUSUM allowance and decision interval, in reference
#: standard deviations (see :class:`~repro.stats.incremental.StreamingCusum`).
SCREEN_DRIFT = 0.75
SCREEN_THRESHOLD = 6.0


class IncrementalScanCache:
    """Decides, per series, whether a full windowed scan is needed.

    Args:
        max_staleness: Seconds of reference-time drift after which a
            full scan is forced even with a quiet screen.  Callers pass
            the analysis-window duration so a skip is always based on a
            window overlapping the anchored one.

    Plain-attribute state only (dict, list, numpy arrays): pickles
    inside shard checkpoints and across process-pool boundaries.
    """

    # One entry per column of the struct-of-arrays anchor store, with its
    # dtype.  Every loop over them treats them uniformly.
    _COLUMNS = {
        "_c_anchor_end": np.float64,
        "_c_anchor_len": np.int64,
        "_c_full_scan_at": np.float64,
        "_c_had_candidate": bool,
        "_c_mean": np.float64,
        "_c_std": np.float64,
        "_c_pos": np.float64,
        "_c_neg": np.float64,
        "_c_fired": bool,
        "_c_n": np.int64,
    }

    def __init__(self, max_staleness: float) -> None:
        if max_staleness <= 0:
            raise ValueError("max_staleness must be positive")
        self.max_staleness = float(max_staleness)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._rows: Dict[str, int] = {}
        self._names: List[str] = []
        self._size = 0
        self._alloc(_MIN_ROWS)

    def _alloc(self, capacity: int) -> None:
        """Allocate fresh columns with room for ``capacity`` rows."""
        for name, dtype in self._COLUMNS.items():
            setattr(self, name, np.zeros(capacity, dtype=dtype))

    def _grow(self) -> None:
        """Double capacity (amortized O(1) row appends, like FloatColumn)."""
        live = {name: getattr(self, name)[: self._size] for name in self._COLUMNS}
        self._alloc(max(_MIN_ROWS, 2 * self._size))
        for name, column in live.items():
            getattr(self, name)[: self._size] = column

    def _remove(self, name: str) -> None:
        """Drop one row, filling the hole with the last row (order-free)."""
        row = self._rows.pop(name, None)
        if row is None:
            return
        last = self._size - 1
        if row != last:
            moved = self._names[last]
            for col in self._COLUMNS:
                column = getattr(self, col)
                column[row] = column[last]
            self._names[row] = moved
            self._rows[moved] = row
        self._names.pop()
        self._size = last

    def __len__(self) -> int:
        return self._size

    def should_scan(self, series: TimeSeries, now: float) -> bool:
        """Whether the full windowed detector must run for ``series``.

        Folds the points stamped before ``now`` that arrived since the
        anchor into the series' screen (O(n)) either way; a ``False``
        return is a cache hit — the previous "no candidate" outcome
        still stands.  One-series view of
        :meth:`screen_batch`, so a series screened alone or inside a
        batch reaches the same decision with the same counter updates.
        """
        return self.screen_batch([series], now)[series.name]

    def screen_batch(
        self, series_list: Sequence[TimeSeries], now: float
    ) -> Dict[str, bool]:
        """Batch :meth:`should_scan` over many series at once.

        This is the shard-advance hot path.  The per-series screens are
        stacked into ``(k, n)`` matrices (grouped by new-point count —
        fleet cadence means most series gained the same number of
        points since the last scan) and advanced with one vectorized
        :func:`~repro.stats.incremental.cusum_screen_batch` call per
        group; screen-state writeback, scan decisions, and the
        hit/miss/invalidation counters are whole-batch array ops on the
        column store.  Decisions and counters are identical to calling
        :meth:`should_scan` in sequence.  Series names must be unique
        within one batch (the TSDB guarantees this).

        Returns:
            ``{series.name: must_scan}`` for every series passed in.
        """
        decisions: Dict[str, bool] = {}
        rows_map = self._rows
        c_anchor_len = self._c_anchor_len
        c_anchor_end = self._c_anchor_end
        c_fired = self._c_fired
        c_n = self._c_n
        if len(series_list) > 64 and self._size:
            # Large batch: one bulk tolist() per hot column turns the
            # per-series scalar reads below into plain list indexing
            # (several numpy scalar boxings cheaper per series).  The
            # snapshots are read-only — each series appears at most once
            # per batch, so they can never be read after a write.
            r_anchor_len = c_anchor_len[: self._size].tolist()
            r_anchor_end = c_anchor_end[: self._size].tolist()
            r_fired = c_fired[: self._size].tolist()
        else:
            r_anchor_len, r_anchor_end, r_fired = c_anchor_len, c_anchor_end, c_fired
        misses = 0
        invalidations = 0
        invalidated: List[str] = []
        # Rows whose screen needed no matrix fold (no new points, or
        # already latched): decided together in one vectorized pass.
        settled_names: List[str] = []
        settled_rows: List[int] = []
        # width -> (names, rows, tail views, new end stamps); the new
        # anchor length per row is just anchor_len + width, so it needs
        # no per-series collection.
        groups: Dict[
            int,
            Tuple[List[str], List[int], List[np.ndarray], List[float]],
        ] = {}
        # Nearly every series in a fleet gains the same number of points
        # between advances, so the active group is cached across loop
        # iterations instead of re-fetched per series.
        open_width = -1
        g_names = g_rows = g_tails = g_ends = None

        for series in series_list:
            name = series.name
            row = rows_map.get(name)
            if row is None:
                misses += 1
                decisions[name] = True
                continue
            # Hot path: reach straight into the columnar buffers — one
            # attribute read instead of a method call per field, at
            # thousands of series per advance.
            ts = series._timestamps
            buf = ts._buffer
            n = ts._length
            if n and buf[n - 1] >= now:
                # The tail runs ahead of the clock: cut at ``now``.
                n = int(np.searchsorted(buf[:n], now))
            anchor_len = r_anchor_len[row]
            if anchor_len and (n < anchor_len or buf[anchor_len - 1] != r_anchor_end[row]):
                # The anchored end moved.  Retention only drops samples
                # from the front: the end still stored, earlier, means the
                # anchor holds and re-bases on it.
                anchor_end = r_anchor_end[row]
                at = int(np.searchsorted(buf[:n], anchor_end))
                if at < anchor_len - 1 and at < n and buf[at] == anchor_end:
                    anchor_len = at + 1
                    c_anchor_len[row] = anchor_len
                else:
                    anchor_len = 0
            if not anchor_len:
                # History was rewritten under the anchor (backfill, or a
                # trim past its end): the screen's reference is no longer
                # valid.  Removal is deferred so row indices collected
                # above stay stable for the whole batch.
                invalidations += 1
                misses += 1
                invalidated.append(name)
                decisions[name] = True
                continue
            if n > anchor_len:
                if r_fired[row]:
                    # Latched screen: the scalar fold consumes a single
                    # point and stays fired; no matrix work needed.
                    c_n[row] += 1
                    c_anchor_len[row] = n
                    c_anchor_end[row] = buf[n - 1]
                    settled_names.append(name)
                    settled_rows.append(row)
                else:
                    width = int(n - anchor_len)
                    if width != open_width:
                        group = groups.get(width)
                        if group is None:
                            group = groups[width] = ([], [], [], [])
                        g_names, g_rows, g_tails, g_ends = group
                        open_width = width
                    g_names.append(name)
                    g_rows.append(row)
                    g_tails.append(series._values._buffer[anchor_len:n])
                    g_ends.append(buf[n - 1])
            else:
                settled_names.append(name)
                settled_rows.append(row)

        hits = 0
        for width, (g_names, g_rows, g_tails, g_ends) in groups.items():
            idx = np.fromiter(g_rows, dtype=np.intp, count=len(g_rows))
            # concatenate + reshape beats np.stack here: same (k, n)
            # matrix without a per-row expand_dims wrapper, and every
            # row in a group has the same width by construction.
            pos_out, neg_out, fired_at = cusum_screen_batch(
                np.concatenate(g_tails).reshape(len(g_rows), width),
                self._c_mean[idx],
                self._c_std[idx],
                self._c_pos[idx],
                self._c_neg[idx],
                SCREEN_DRIFT,
                SCREEN_THRESHOLD,
            )
            fired_rows = fired_at >= 0
            self._c_pos[idx] = pos_out
            self._c_neg[idx] = neg_out
            c_fired[idx] = fired_rows
            # n counts through the firing point and freezes consumption
            # there, like the scalar StreamingCusum.update loop.
            c_n[idx] += np.where(fired_rows, fired_at + 1, width)
            c_anchor_len[idx] += width
            c_anchor_end[idx] = g_ends
            must = (
                self._c_had_candidate[idx]
                | fired_rows
                | ((now - self._c_full_scan_at[idx]) >= self.max_staleness)
            )
            forced = int(np.count_nonzero(must))
            misses += forced
            hits += len(g_rows) - forced
            decisions.update(zip(g_names, must.tolist()))

        if settled_rows:
            idx = np.fromiter(settled_rows, dtype=np.intp, count=len(settled_rows))
            must = (
                self._c_had_candidate[idx]
                | c_fired[idx]
                | ((now - self._c_full_scan_at[idx]) >= self.max_staleness)
            )
            forced = int(np.count_nonzero(must))
            misses += forced
            hits += len(settled_rows) - forced
            decisions.update(zip(settled_names, must.tolist()))

        self.hits += hits
        self.misses += misses
        self.invalidations += invalidations
        for name in invalidated:
            self._remove(name)
        return decisions

    def record_full_scans(
        self,
        series_list: Sequence[TimeSeries],
        now: float,
        means: Sequence[float],
        stds: Sequence[float],
        had_candidates: Sequence[bool],
    ) -> None:
        """Re-anchor every series of a batch of full scans at ``now``:
        on the samples stamped before ``now``, the ones the scan's window
        read (one comparison per series, a bisect only for a tail that
        runs ahead of the clock).

        ``means`` / ``stds`` are the population moments of each series'
        analysis window (the screen's z-score scale) in the series' raw
        value domain — no metric orientation applied: :meth:`should_scan`
        folds raw tail values into the screen, and the two-sided CUSUM
        catches shifts in either direction anyway.  New rows are taken
        in list order; the rest is one write per column.  Series must be
        non-empty and unique within the batch.
        """
        rows, ends, lengths = [], [], []
        for series in series_list:
            row = self._rows.get(series.name)
            if row is None:
                if self._size == len(self._c_anchor_end):
                    self._grow()
                row = self._size
                self._size += 1
                self._rows[series.name] = row
                self._names.append(series.name)
            stamps = series._timestamps
            n = len(stamps)
            if stamps.get(-1) >= now:
                n = stamps.searchsorted(now)
            rows.append(row)
            ends.append(stamps.get(n - 1) if n else 0.0)
            lengths.append(n)
        idx = np.fromiter(rows, dtype=np.intp, count=len(rows))
        self._c_anchor_end[idx] = ends
        self._c_anchor_len[idx] = lengths
        self._c_full_scan_at[idx] = now
        self._c_had_candidate[idx] = had_candidates
        self._c_mean[idx] = means
        self._c_std[idx] = stds
        self._c_pos[idx] = 0.0
        self._c_neg[idx] = 0.0
        self._c_fired[idx] = False
        self._c_n[idx] = 0

    def record_full_scan(
        self,
        series: TimeSeries,
        now: float,
        analysis_values: Sequence[float],
        had_candidate: bool,
    ) -> None:
        """Re-anchor ``series`` after a full scan over the raw
        ``analysis_values``: one-series view of :meth:`record_full_scans`."""
        if len(series) == 0:
            return
        x = np.asarray(analysis_values, dtype=float)
        mean, std = (x.mean(), x.std()) if x.size else (0.0, 0.0)
        self.record_full_scans([series], now, [mean], [std], [bool(had_candidate)])

    def screen_state(self, name: str) -> Optional[Dict[str, float]]:
        """One series' anchor + screen state as a plain dict, or None.

        Debug/bench surface: exposes a column-store row without leaking
        the storage layout.
        """
        row = self._rows.get(name)
        if row is None:
            return None
        return {
            "anchor_end": float(self._c_anchor_end[row]),
            "anchor_len": int(self._c_anchor_len[row]),
            "full_scan_at": float(self._c_full_scan_at[row]),
            "had_candidate": bool(self._c_had_candidate[row]),
            "mean": float(self._c_mean[row]),
            "std": float(self._c_std[row]),
            "pos": float(self._c_pos[row]),
            "neg": float(self._c_neg[row]),
            "fired": bool(self._c_fired[row]),
            "n": int(self._c_n[row]),
        }

    def counters(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "anchors": self._size,
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle support: columns compact to the live rows (the next new
        row grows them again), and the name index is rebuilt on load."""
        state = {key: value for key, value in vars(self).items() if key != "_rows"}
        state.update((col, getattr(self, col)[: self._size]) for col in self._COLUMNS)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rows = {name: row for row, name in enumerate(self._names)}
