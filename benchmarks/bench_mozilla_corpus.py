"""FP/FN score of the full pipeline over the Mozilla alert corpus.

*A Dataset of Performance Measurements and Alerts from Mozilla* (arXiv
2503.16332) publishes Perfherder series together with sheriff-triaged
alerts — real-world labels a detector can be scored against, the same
confusion-matrix exercise §6.2 runs on synthetic windows.  This bench
replays a slice of it (``scripts/make_mozilla_slice.py`` writes one into
a temporary directory per run) through the *entire* service path — connector mapping, admission, sharded ingest, scheduled
detection — and scores delivered reports against the corpus labels:

- a report matches a labeled regression when it lands on the same
  mapped series with a change time within one day of the alert's push
  timestamp (TP); unmatched reports are FPs, unmatched labels FNs;
- sheriff-``invalid`` alerts are *excluded* from ground truth — the
  slice plants one (a transient spike Mozilla's own detector flagged
  and the sheriffs rejected) and the pipeline's transient filtering
  must not repeat that false positive;
- an improvement alert (``is_regression: false``) is also excluded —
  the pipeline only reports increases (§5.2's convention), so a mean
  *drop* must produce nothing.

The test asserts F1 = 1.0 over the slice; CI's ``bench-smoke`` job runs it.
"""

import os
import sys
import tempfile

from _harness import emit
from repro.config import DetectionConfig
from repro.connectors import SeriesMapper, import_corpus, load_corpus
from repro.service import BackpressurePolicy, StreamingDetectionService
from repro.tsdb import WindowSpec

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
from make_mozilla_slice import write_slice  # noqa: E402

#: A report and a label agree when their times are within one day.
MATCH_TOLERANCE = 24 * 3600.0


def corpus_config(interval: float) -> DetectionConfig:
    """Detection tuned to the corpus cadence (hourly pushes).

    The 3% relative threshold sits between the slice's noise floor
    (~1%) and its smallest labeled regression (5%), mirroring how
    Perfherder's own alert thresholds are set per suite.
    """
    return DetectionConfig(
        name="mozilla-corpus",
        threshold=0.03,
        relative_threshold=True,
        rerun_interval=12 * interval,
        windows=WindowSpec(
            historic=96 * interval, analysis=48 * interval,
            extended=24 * interval,
        ),
        long_term=False,
    )


def run_corpus(path=None, sinks=()):
    """Replay one corpus slice (``None``: a freshly generated one)
    through the full service path.

    Returns ``(corpus, stats, reports, labels)`` — the loaded corpus,
    the importer's :class:`~repro.connectors.ImportStats`, every
    delivered incident report, and the ground-truth label map keyed by
    mapped series name.
    """
    if path is None:
        with tempfile.TemporaryDirectory() as scratch:
            corpus = load_corpus(write_slice(os.path.join(scratch, "mozilla_slice.json")))
    else:
        corpus = load_corpus(path)
    mapper = SeriesMapper(source="mozilla")
    interval = corpus.interval_seconds
    config = corpus_config(interval)
    service = StreamingDetectionService(
        n_shards=4,
        sinks=list(sinks),
        queue_capacity=1 << 20,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=4_096,
    )
    service.register_monitor(
        "mozilla", config, series_filter={"source": "mozilla"}
    )
    stats = import_corpus(service, corpus, mapper)
    service.flush()

    first, last = corpus.span
    reports = []
    # Walk detection through the corpus on the rerun cadence, the way a
    # live deployment would scan as pushes arrive — not one hindsight
    # scan at the end.
    target = first + config.windows.total
    while target < last + interval:
        reports.extend(service.advance_to(target))
        target += config.rerun_interval
    reports.extend(service.advance_to(last + interval))
    service.close()

    labels = corpus.labeled_regressions(mapper)
    return corpus, stats, reports, labels


def score_corpus(reports, labels, tolerance: float = MATCH_TOLERANCE) -> dict:
    """Confusion counts of delivered reports vs. corpus ground truth.

    Each label matches at most one report (and vice versa); a report on
    an unlabeled series — or outside ``tolerance`` of every unmatched
    label on its series — is a false positive.
    """
    matched = set()
    tp = fp = 0
    for report in reports:
        times = labels.get(report.metric_id, [])
        hit = None
        for index, label_time in enumerate(times):
            key = (report.metric_id, index)
            if key in matched:
                continue
            if abs(report.change_time - label_time) <= tolerance:
                hit = key
                break
        if hit is None:
            fp += 1
        else:
            matched.add(hit)
            tp += 1
    fn = sum(len(times) for times in labels.values()) - len(matched)
    precision = tp / max(1, tp + fp)
    recall = tp / max(1, tp + fn)
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {
        "tp": tp, "fp": fp, "fn": fn,
        "precision": precision, "recall": recall, "f1": f1,
    }


def test_mozilla_corpus_scores(capsys):
    corpus, stats, reports, labels = run_corpus()
    scores = score_corpus(reports, labels)

    # The slice is clean and deterministic: every measurement
    # parses and is admitted, and every labeled regression is caught
    # with no false alarms — including the sheriff-invalid transient
    # and the improvement, which must stay silent.
    assert stats.bad_rows == 0
    assert stats.accepted == stats.offered
    assert stats.series == len(corpus.series)
    n_labels = sum(len(times) for times in labels.values())
    assert n_labels == 4  # invalid + improvement alerts excluded

    emit(
        "Mozilla corpus FP/FN (arXiv 2503.16332 slice, full service path)",
        [
            f"corpus: {stats.series} signatures, {stats.offered} measurements, "
            f"{len(corpus.alerts)} sheriff-triaged alerts ({n_labels} valid)",
            f"TP={scores['tp']} FP={scores['fp']} FN={scores['fn']}",
            f"precision={scores['precision']:.2f} recall={scores['recall']:.2f} "
            f"F1={scores['f1']:.2f}",
            "sheriff-invalid transient and improvement alert: not flagged",
        ],
    )

    assert scores["fn"] == 0, f"missed labeled regressions: {scores}"
    assert scores["fp"] == 0, f"false alarms on the labeled corpus: {scores}"
    assert scores["f1"] == 1.0
