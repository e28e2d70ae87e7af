"""Scalar reference kernels for the bit-identity properties.

These are the per-point / per-pair / per-split Python loops that
``repro.stats`` ran before the scan-tail kernels became array
expressions, and the per-call NumPy forms (``np.median`` /
``np.percentile`` per went-away term, a pair mask per Theil-Sen fit, a
dot product per ACF lag) they ran before windows were sorted once and
pairs planned once — kept verbatim as the thing
``tests/test_kernel_identity.py`` compares the production kernels
against.  The per-series CUSUM proposal, one-sweep EM and ``detect`` that
``repro.core.change_point`` ran before a round's full scans became one
row-wise pass are here too, under their old names.  They exist only
here: ``src/`` holds one kernel per algorithm.  So does admission as it
judged every counter frame, one row at a time (:class:`RowAdmission`),
before an orderly counter frame was held whole, and the window skip check
as it read every window before a window became one copy
(:func:`window_skip_reason`).  :func:`went_away_terms` is the
per-candidate form the went-away row pass is held to,
:func:`aligned_pearson` time correlation as it aligned two ``{time:
value}`` dicts before it intersected two sorted time arrays, and
:func:`pearson` the coefficient as it centred each side twice.
:func:`remote_write_frames` is the remote-write receiver's reading of a
body as it was before orjson and one column pair per POST: ``json.loads``
and one pair of columns converted per series.
"""

from __future__ import annotations

import bisect
import json
from statistics import median

import numpy as np
from scipy import stats as sp_stats

from repro.connectors.remote_write import _float_column
from repro.core import went_away
from repro.core.change_point import ChangePointCandidate
from repro.core.pipeline import MIN_ANALYSIS_POINTS, MIN_HISTORIC_POINTS
from repro.quality import admission, gaps
from repro.quality.admission import ADMIT, DROP, HELD, AdmissionController
from repro.quality.gaps import window_coverage
from repro.stats.correlation import MIN_OVERLAP
from repro.stats.hypothesis import likelihood_ratio_test  # exact, and never batched
from repro.stats.sax import sax_encode  # went_away_terms; its own reference is sax_fields
from repro.stats.stl import _moving_average  # np.convolve: never was a loop
from repro.tsdb import SeriesFrame

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


# ---------------------------------------------------------------------------
# Loess / STL
# ---------------------------------------------------------------------------


def loess_smooth(values, span=0.3, degree=1):
    """One weighted local fit per point."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n == 0:
        return np.empty(0)
    window = max(2 if degree == 1 else 1, int(np.ceil(span * n)))
    if window >= n:
        window = n

    x = np.arange(n, dtype=float)
    smoothed = np.empty(n)
    half = window // 2
    for i in range(n):
        lo = int(np.clip(i - half, 0, n - window))
        hi = lo + window
        xs, ys = x[lo:hi], y[lo:hi]
        dist = np.abs(xs - i)
        max_dist = dist.max()
        if max_dist == 0:
            smoothed[i] = ys.mean()
            continue
        w = (1 - (dist / max_dist) ** 3) ** 3
        w = np.maximum(w, 1e-6)
        if degree == 0:
            smoothed[i] = float(np.average(ys, weights=w))
        else:
            sw = w.sum()
            xm = float((w * xs).sum() / sw)
            ym = float((w * ys).sum() / sw)
            sxx = float((w * (xs - xm) ** 2).sum())
            if sxx < 1e-12:
                smoothed[i] = ym
            else:
                slope = float((w * (xs - xm) * (ys - ym)).sum() / sxx)
                smoothed[i] = ym + slope * (i - xm)
    return smoothed


def cycle_subseries_means(y, period):
    """One strided mean per phase."""
    n = y.size
    seasonal = np.empty(n)
    for phase in range(period):
        idx = np.arange(phase, n, period)
        seasonal[idx] = y[idx].mean()
    return seasonal


def stl_decompose(values, period, iterations=2, trend_span=0.4):
    """``(seasonal, trend, residual)`` through the scalar loops above."""
    y = np.asarray(values, dtype=float)
    trend = np.zeros(y.size)
    seasonal = np.zeros(y.size)
    for _ in range(max(1, iterations)):
        raw_seasonal = cycle_subseries_means(y - trend, period)
        seasonal = raw_seasonal - _moving_average(raw_seasonal, period)
        seasonal -= seasonal.mean()
        trend = loess_smooth(y - seasonal, span=trend_span, degree=1)
    return seasonal, trend, y - seasonal - trend


# ---------------------------------------------------------------------------
# EM mean split
# ---------------------------------------------------------------------------


def split_loglik(prefix, prefix_sq, t, n):
    """Pooled-variance Gaussian log-likelihood of one split."""
    s1, s2 = prefix[t], prefix[n] - prefix[t]
    q1, q2 = prefix_sq[t], prefix_sq[n] - prefix_sq[t]
    n1, n2 = t, n - t
    rss = (q1 - s1 * s1 / n1) + (q2 - s2 * s2 / n2)
    pooled_var = max(rss / n, 1e-30)
    return -0.5 * n * np.log(pooled_var)


def prefix_sums(values):
    x = np.asarray(values, dtype=float)
    return (
        np.concatenate([[0.0], np.cumsum(x)]),
        np.concatenate([[0.0], np.cumsum(x * x)]),
    )


def em_mean_split(values, initial_index=None, min_segment=2, max_iterations=50):
    """Full candidate sweep per iteration, one ``split_loglik`` per split."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_segment:
        return None
    prefix, prefix_sq = prefix_sums(x)
    lo, hi = min_segment, n - min_segment
    t = initial_index if initial_index is not None else n // 2
    t = int(np.clip(t, lo, hi))
    current = split_loglik(prefix, prefix_sq, t, n)
    for _ in range(max_iterations):
        candidates = np.array(
            [split_loglik(prefix, prefix_sq, s, n) for s in range(lo, hi + 1)]
        )
        best = lo + int(np.argmax(candidates))
        best_ll = float(candidates[best - lo])
        if best == t or best_ll <= current + 1e-12:
            break
        t, current = best, best_ll
    return t, float(current)


def refine_changepoint(values, proposal, min_segment):
    """The detector's old ``range(3)`` refinement around the EM loop."""
    index = proposal
    refined = None
    for _ in range(3):
        refined = em_mean_split(values, initial_index=index, min_segment=min_segment)
        if refined is None or refined[0] == index:
            break
        index = refined[0]
    return refined


# ---------------------------------------------------------------------------
# Change-point detection, one series per call
# ---------------------------------------------------------------------------


def cusum_changepoint(values, min_segment=2):
    """``(index, statistic, mean_before, mean_after, curve)`` or ``None``."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_segment:
        return None

    curve = np.cumsum(x - x.mean()) if n else np.empty(0)
    lo = min_segment - 1
    hi = n - min_segment
    window = np.abs(curve[lo:hi])
    if window.size == 0:
        return None
    split = lo + int(np.argmax(window))
    index = split + 1

    std = float(x.std())
    stat = float(abs(curve[split]) / (std * np.sqrt(n))) if std > 0 else 0.0
    return index, stat, float(x[:index].mean()), float(x[index:].mean()), curve


def em_sweep(values, initial_index=None, min_segment=2):
    """The one-sweep EM on one series (what replaced the loop above)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_segment:
        return None

    prefix = np.concatenate([[0.0], np.cumsum(x)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(x * x)])

    lo, hi = min_segment, n - min_segment
    t = initial_index if initial_index is not None else n // 2
    t = int(np.clip(t, lo, hi))

    n1 = np.arange(lo, hi + 1)
    s1, q1 = prefix[lo : hi + 1], prefix_sq[lo : hi + 1]
    s2, q2 = prefix[n] - s1, prefix_sq[n] - q1
    rss = (q1 - s1 * s1 / n1) + (q2 - s2 * s2 / (n - n1))
    loglik = -0.5 * n * np.log(np.maximum(rss / n, 1e-30))

    best = lo + int(np.argmax(loglik))
    if not loglik[best - lo] <= loglik[t - lo] + 1e-12:
        t = best
    return t, float(loglik[t - lo])


def detect(values, significance_level=0.01, min_segment=3):
    """``ChangePointDetector.detect`` as it ran per series."""
    x = np.asarray(values, dtype=float)
    if x.size < 2 * min_segment:
        return None

    proposal = cusum_changepoint(x, min_segment=min_segment)
    if proposal is None:
        return None
    refined = em_sweep(x, initial_index=proposal[0], min_segment=min_segment)
    if refined is None:
        return None
    index = refined[0]

    test = likelihood_ratio_test(x, index, significance_level)
    if not test.significant:
        return None
    return ChangePointCandidate(
        index=index,
        mean_before=float(x[:index].mean()),
        mean_after=float(x[index:].mean()),
        p_value=test.p_value,
    )


def detect_rows(detector, rows, increases_only=False):
    """``ChangePointDetector.detect_rows`` as the loop it replaced: one
    :func:`detect` a row (every row counts as having taken the exact test)."""
    found = [detect(x, detector.significance_level, detector.min_segment) for x in rows]
    if increases_only:
        found = [c if c is not None and c.magnitude > 0 else None for c in found]
    return found, len(rows)


# ---------------------------------------------------------------------------
# Mann-Kendall and the tail probabilities
# ---------------------------------------------------------------------------


def mann_kendall_s(values):
    """``S`` from the n x n float sign matrix."""
    x = np.asarray(values, dtype=float)
    return int(np.triu(np.sign(x[None, :] - x[:, None]), k=1).sum())


def mann_kendall(values):
    """``(s, z, p_value)`` with ``scipy.stats.norm.sf``; non-finite input is "no trend"."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3 or not np.isfinite(x).all():
        return 0, 0.0, 1.0
    s = mann_kendall_s(x)
    _, counts = np.unique(x, return_counts=True)
    tie_term = float((counts * (counts - 1) * (2 * counts + 5)).sum())
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var_s <= 0:
        return s, 0.0, 1.0
    if s > 0:
        z = (s - 1) / np.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / np.sqrt(var_s)
    else:
        z = 0.0
    return s, float(z), float(2.0 * sp_stats.norm.sf(abs(z)))


def chi2_sf(statistic):
    return float(sp_stats.chi2.sf(statistic, df=1))


def mann_kendall_trend(values, significance_level=0.05):
    _, z, p_value = mann_kendall(values)
    if p_value < significance_level:
        return "increasing" if z > 0 else "decreasing"
    return "no trend"


# ---------------------------------------------------------------------------
# Theil-Sen: the pair mask and both difference matrices rebuilt per call
# ---------------------------------------------------------------------------


def theil_sen(values, x=None):
    """``(slope, intercept)`` over every pair (``n <= 1000``)."""
    y = np.asarray(values, dtype=float)
    n = y.size
    xs = np.arange(n, dtype=float) if x is None else np.asarray(x, dtype=float)
    order = np.arange(n)
    pairs = order[:, None] < order
    dx = (xs[None, :] - xs[:, None])[pairs]
    dy = (y[None, :] - y[:, None])[pairs]
    valid = dx != 0
    if not valid.any():
        return 0.0, float(np.median(y))
    slope = float(np.median(dy[valid] / dx[valid]))
    return slope, float(np.median(y - slope * xs))


# ---------------------------------------------------------------------------
# Went-away: one np.median / np.percentile call per term
# ---------------------------------------------------------------------------


def went_away_terms(historic, analysis, extended, index):
    """``(new_pattern, significant, lasting, gone_away)`` the NumPy-call way.

    SAX is the production encoder (``sax_fields`` below is its reference);
    every median, percentile, trend test and slope is this module's.  The
    settings are read off :mod:`repro.core.went_away` at call time, so a
    test that patches them there holds both sides to the same values.
    """
    buckets, valid_fraction = went_away.DEFAULT_BUCKETS, went_away.DEFAULT_VALID_FRACTION
    tail_points = went_away.TAIL_POINTS
    post = np.concatenate([analysis[index:], extended])
    pre = np.concatenate([historic, analysis[:index]])
    historic_enc = sax_encode(historic, buckets, valid_fraction)
    grid = (historic_enc.bucket_edges[0], historic_enc.bucket_edges[-1])
    post_enc = sax_encode(post, buckets, valid_fraction, value_range=grid)
    threshold = 0.0
    baseline = None
    if historic.size:
        baseline = float(np.median(historic))
        spread = float(np.median(np.abs(historic - np.median(historic))))
        threshold = went_away.REGRESSION_COEFFICIENT * spread * 1.4826

    def new_pattern():
        if post.size == 0 or not historic_enc.valid_letters:
            return False
        outside = post_enc.count_outside(historic_enc.valid_letters)
        if outside / post.size < went_away.NEW_PATTERN_FRACTION:
            return False
        lowest_bound = historic_enc.bucket_lower_bound(min(historic_enc.valid_letters))
        return not float(post.mean()) < lowest_bound

    def significant():
        if post.size == 0 or pre.size == 0:
            return False
        if post_enc.max_letter() < historic_enc.max_valid_letter():
            return False
        p90_post = float(np.percentile(post, 90))
        if historic.size and p90_post <= float(np.percentile(historic, 95)):
            return False
        prev_day = pre[-min(pre.size, max(tail_points * 4, 24)) :]
        return not p90_post <= float(np.percentile(prev_day, 90))

    def lasting():
        if analysis.size < 3:
            return False
        post_trend = mann_kendall_trend(post) if post.size >= 3 else None
        if (
            post_trend not in (None, "decreasing")
            and baseline is not None
            and float(np.median(post)) - baseline >= threshold
        ):
            return True
        slopes = []
        if post_trend == "increasing":
            slopes.append(theil_sen(post)[0])
        if mann_kendall_trend(analysis) == "increasing":
            slopes.append(theil_sen(analysis)[0])
        return bool(slopes) and min(slopes) * analysis.size >= threshold

    def gone_away():
        if post.size < tail_points or baseline is None:
            return False
        return float(np.median(post[-tail_points:])) <= baseline + threshold

    return new_pattern(), significant(), lasting(), gone_away()


# ---------------------------------------------------------------------------
# Season length: every lag's dot product, then the scan
# ---------------------------------------------------------------------------


def acf(values, max_lag=None):
    """One lagged dot product per lag, in a Python loop."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n == 0:
        return np.empty(0)
    if max_lag is None:
        max_lag = n // 2
    max_lag = min(max_lag, n - 1)
    x = x - x.mean()
    denom = float((x * x).sum())
    if denom <= 0:
        out = np.zeros(max_lag + 1)
        out[0] = 1.0
        return out
    result = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        result[lag] = float((x[: n - lag] * x[lag:]).sum()) / denom
    return result


def detect_season_length(values, min_period=2, max_period=None, significance=None):
    """The scan over all ``n // 2`` lags of :func:`acf`."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * min_period:
        return None
    if max_period is None:
        max_period = n // 2
    threshold = significance if significance is not None else 1.96 / np.sqrt(n)
    correlations = acf(x, max_lag=max_period)
    best_lag, best_corr = None, threshold
    for lag in range(min_period, min(max_period, correlations.size - 1)):
        c = correlations[lag]
        if c <= best_corr:
            continue
        if c >= correlations[lag - 1] and c >= correlations[lag + 1]:
            best_lag, best_corr = lag, c
    return best_lag


# ---------------------------------------------------------------------------
# SAX
# ---------------------------------------------------------------------------


def sax_fields(values, n_buckets=20, valid_fraction=0.03, value_range=None):
    """``(string, letters, valid_letters, bucket_edges)`` built per point."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return "", (), frozenset(), tuple(np.linspace(0.0, 1.0, n_buckets + 1))
    if value_range is None:
        lo, hi = float(x.min()), float(x.max())
    else:
        lo, hi = value_range
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_buckets + 1)
    letters = np.clip(np.digitize(x, edges[1:-1]), 0, n_buckets - 1)
    counts = np.bincount(letters, minlength=n_buckets)
    threshold = max(1, int(np.ceil(valid_fraction * x.size)))
    return (
        "".join(ALPHABET[i] for i in letters),
        tuple(int(i) for i in letters),
        frozenset(int(i) for i in np.nonzero(counts >= threshold)[0]),
        tuple(float(e) for e in edges),
    )


def count_outside(letters, valid_letters):
    return sum(1 for letter in letters if letter not in valid_letters)


# ---------------------------------------------------------------------------
# Time correlation: two {time: value} dicts aligned on their shared keys
# ---------------------------------------------------------------------------


def pearson(a, b):
    """The Pearson coefficient with each mean and centred copy taken twice,
    once by ``np.std`` and once for the product."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("pearson requires at least 2 points")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def aligned_pearson(a, b):
    """The Pearson correlation over the keys two ``{timestamp: value}``
    mappings share, at least half of the shorter one's and at least
    ``MIN_OVERLAP`` of them."""
    shared = sorted(set(a) & set(b))
    if len(shared) < max(MIN_OVERLAP, min(len(a), len(b)) / 2):
        return 0.0
    return pearson([a[t] for t in shared], [b[t] for t in shared])


def aligned_pearson_of_arrays(a_times, a_values, b_times, b_values):
    """:func:`aligned_pearson` on the dicts two ``(times, values)`` array
    pairs made, as ``dict(zip(times.tolist(), values.tolist()))``."""
    return aligned_pearson(
        dict(zip(a_times.tolist(), a_values.tolist())),
        dict(zip(b_times.tolist(), b_values.tolist())),
    )


# ---------------------------------------------------------------------------
# Cadence
# ---------------------------------------------------------------------------


def cadence(timestamps, min_points=8):
    """``statistics.median`` over a Python loop of positive gaps."""
    if len(timestamps) < min_points:
        return None
    deltas = [
        later - earlier
        for earlier, later in zip(timestamps, timestamps[1:])
        if later > earlier
    ]
    if not deltas:
        return None
    return median(deltas)


def window_skip_reason(pipeline, series, windowed):
    """``DetectionPipeline._window_skip_reason`` as it judged each window: a
    finiteness pass per window, the historic timestamps bisected again, and
    the cadence by :func:`cadence`."""
    if not windowed.has_minimum_data(MIN_HISTORIC_POINTS, MIN_ANALYSIS_POINTS):
        return "insufficient_data"
    for values in (windowed.historic, windowed.analysis, windowed.extended):
        if not np.isfinite(values).all():
            return "non_finite_window"
    if pipeline.quality_gate is not None:
        stamps = series.between(windowed.historic_start, windowed.analysis_start).timestamps
        spacing = cadence(stamps.tolist(), gaps.MIN_CADENCE_POINTS)
        present = int(windowed.analysis.size)
        start, end = windowed.analysis_start, windowed.extended_start
        if spacing is not None and window_coverage(present, start, end, spacing) < gaps.MIN_COVERAGE:
            return "low_quality_window"
    return None


# ---------------------------------------------------------------------------
# Admission: every frame judged one row at a time
# ---------------------------------------------------------------------------

_INF = float("inf")


class RowAdmission(AdmissionController):
    """The controller with every frame on the row path: ``_admit_row``
    judges each row and a release rebases a counter's values in a loop —
    how a counter's frames were admitted before an orderly one was held
    whole."""

    def admit(self, frames):
        judged = []
        for frame in frames:
            while len(frame):
                judged.append(self._admit_frame(frame))
                frame = frame[judged[-1][0]:]
        return judged

    def _admit_frame(self, frame):
        state = self._series.get(frame.name)
        if state is None:
            state = self._create_state(frame)
        state.tags = frame.tags
        kept_ts, kept_vals = [], []
        consumed = held = 0
        released = None
        for timestamp, value in zip(frame.timestamps.tolist(), frame.values.tolist()):
            verdict, value = self._admit_row(state, frame.name, timestamp, value)
            consumed += 1
            if verdict == ADMIT:
                kept_ts.append(timestamp)
                kept_vals.append(value)
            elif verdict == HELD:
                held += 1
                if len(state.pending_ts) > admission.REORDER_WINDOW:
                    released = self._release(state, frame.name)
                    break
        admitted = SeriesFrame(frame.name, frame.tags, kept_ts, kept_vals) if kept_ts else None
        return consumed, held, admitted, released

    def _admit_row(self, state, name, timestamp, value):
        if value != value or value == _INF or value == -_INF:
            self.quarantine.add(name, timestamp, value)
            self.quarantined += 1
            return DROP, value
        if value < 0.0 and state.non_negative:
            value = 0.0
            self.repaired += 1
        counter = state.is_counter
        if not counter and timestamp >= state.watermark:
            if timestamp == state.watermark:
                self.duplicates += 1
            state.watermark = timestamp
            state.admitted += 1
            return ADMIT, value
        pos = bisect.bisect_right(state.pending_ts, timestamp)
        if pos and state.pending_ts[pos - 1] == timestamp:
            self.duplicates += 1
            state.pending_vals[pos - 1] = value
            state.admitted += 1
            return HELD, value
        if counter and timestamp <= state.watermark:
            if timestamp < state.watermark:
                self.reordered += 1
            else:
                self.duplicates += 1
            state.admitted += 1
            return ADMIT, (value + state.counter_offset if state.counter_offset else value)
        if not counter or (state.pending_ts and timestamp < state.pending_ts[-1]):
            self.reordered += 1
        state.pending_ts.insert(pos, timestamp)
        state.pending_vals.insert(pos, value)
        state.admitted += 1
        self.buffered += 1
        return HELD, value

    def _release(self, state, name):
        timestamps, values = state.pending_ts, state.pending_vals
        state.pending_ts, state.pending_vals = [], []
        self.buffered -= len(timestamps)
        if state.is_counter:
            state.watermark = max(state.watermark, timestamps[-1])
            for index, raw in enumerate(values):
                if state.last_raw is not None and raw < state.last_raw:
                    state.counter_offset += state.last_raw
                    self.counter_resets += 1
                state.last_raw = raw
                if state.counter_offset:
                    values[index] = raw + state.counter_offset
        return SeriesFrame(name, state.tags, timestamps, values)


# ---------------------------------------------------------------------------
# Remote write: json.loads, then one pair of columns per series
# ---------------------------------------------------------------------------


def remote_write_frames(body, mapper):
    """The frames of a remote-write body, or ``ValueError``."""
    return parse_remote_write(json.loads(body.decode("utf-8")), mapper)


def parse_remote_write(payload, mapper):
    """One mapped frame per series, each series' columns converted apart."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    entries = payload.get("timeseries", payload.get("series"))
    if not isinstance(entries, list):
        raise ValueError("payload needs a 'timeseries' (or 'series') list")
    frames = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("each timeseries entry must be an object")
        labels = entry.get("labels", {})
        if isinstance(labels, list):  # prompb shape: [{name, value}, ...]
            labels = {
                str(pair.get("name")): str(pair.get("value"))
                for pair in labels
                if isinstance(pair, dict)
            }
        elif not isinstance(labels, dict):
            raise ValueError("labels must be a list of {name, value} or a map")
        name = entry.get("name") or labels.get("__name__")
        if not name:
            raise ValueError("timeseries entry has no metric name")
        mapped = mapper.map(name, labels)
        samples = entry.get("samples", [])
        if not isinstance(samples, list):
            raise ValueError("samples must be a list")
        if not samples:
            continue
        try:  # prompb shape: [{value, timestamp}, ...]
            stamps = [sample["timestamp"] for sample in samples]
            values = [sample["value"] for sample in samples]
        except (TypeError, KeyError, IndexError):
            stamps, values = [], []
            for sample in samples:
                if isinstance(sample, dict):
                    sample = (sample.get("timestamp"), sample.get("value"))
                elif not isinstance(sample, (list, tuple)) or len(sample) != 2:
                    raise ValueError(f"unparseable sample: {sample!r}") from None
                stamps.append(sample[0])
                values.append(sample[1])
        try:
            frame = SeriesFrame(
                mapped.name, mapped.tags, _float_column(stamps) / 1000.0, _float_column(values)
            )
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"non-numeric sample in series {name!r}") from None
        frames.append(frame)
    return frames
