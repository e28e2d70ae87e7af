"""Detector scorecard — the offline suite's challengers ranked on one corpus.

Hunter (arXiv 2301.03034) runs E-divisive means over benchmark
fetch-rates; BIPeC (arXiv 2408.12414) argues no single analyzer wins
everywhere and combines them.  ``repro.detectors.default_suite()`` makes
that comparison concrete here: every built-in detector — the
incumbent FBDetect pipeline, the from-scratch E-divisive tester, the
DP-changepoint detector, and the robust threshold/MAD presets — scores
the shared Figure 8 corpus (see ``_corpus.py``), and the scorecard
ranks them by combined FP+FN rate with per-family false-positive
breakdowns and detection latency (points from the injected change to
the claimed change index).

The expected shape: the incumbent sits lowest on combined error
(its went-away/seasonality filters disarm the benign families), the
statistical challengers (E-divisive, DP) pay transient/wobble FPs for
their generality, and the static presets bound one error type only.

CI's ``bench-smoke`` job runs the file in full (~25 s): the incumbent's
FP and FN rates must both stay <= 5%.
"""

from typing import Dict, List, Sequence

import pytest

from _corpus import fig8_corpus
from _harness import emit
from repro.detectors import Detector, DetectorWindow, default_suite
from repro.workloads import LabeledWindow


def score_detectors(
    detectors: Sequence[Detector],
    corpus: Sequence[LabeledWindow],
) -> List[dict]:
    """Score each detector over a labelled corpus.

    Every window is scanned through :class:`DetectorWindow.from_labeled`
    (the same historic/analysis/extended segments the pipeline scans).  A scan that raises counts as an error
    and as a miss on true regressions — a crashing detector must not
    look better than a quiet one.

    Returns:
        One row per detector, ranked best first by combined FP+FN rate:
        ``{id, type, version, tp, fp, fn, tn, errors, fp_rate, fn_rate,
        combined, latency_mean, latency_n, family_fp}`` where
        ``family_fp`` maps negative-family kind names to FP counts and
        latency is measured in points past the injected change index.
    """
    rows: List[dict] = []
    for detector in detectors:
        tp = fp = fn = tn = errors = 0
        latencies: List[int] = []
        family_fp: Dict[str, int] = {}
        for window in corpus:
            try:
                decision = detector.scan(DetectorWindow.from_labeled(window))
            except Exception:
                errors += 1
                if window.is_true_regression:
                    fn += 1
                else:
                    tn += 1
                continue
            if window.is_true_regression:
                if decision.fired:
                    tp += 1
                    if decision.index is not None and window.change_index >= 0:
                        latencies.append(decision.index - window.change_index)
                else:
                    fn += 1
            elif decision.fired:
                fp += 1
                family_fp[window.kind.value] = family_fp.get(window.kind.value, 0) + 1
            else:
                tn += 1
        described = detector.describe()
        fp_rate = fp / max(1, fp + tn)
        fn_rate = fn / max(1, fn + tp)
        rows.append({
            "id": described["id"],
            "type": described["type"],
            "version": described["version"],
            "tp": tp, "fp": fp, "fn": fn, "tn": tn, "errors": errors,
            "fp_rate": fp_rate,
            "fn_rate": fn_rate,
            "combined": fp_rate + fn_rate,
            "latency_mean": (sum(latencies) / len(latencies)) if latencies else None,
            "latency_n": len(latencies),
            "family_fp": family_fp,
        })
    rows.sort(key=lambda row: (row["combined"], row["id"]))
    return rows


@pytest.fixture(scope="module")
def corpus():
    return fig8_corpus()


@pytest.fixture(scope="module")
def scorecard(corpus):
    # The incumbent runs the same threshold as the Figure 8 point so its
    # row here reproduces that measurement.
    return score_detectors(default_suite(threshold=0.000004), corpus)


def test_scorecard_covers_registry(scorecard):
    # The acceptance bar: at least four detectors of four distinct
    # types scored on the same corpus.
    assert len(scorecard) >= 4
    assert len({row["type"] for row in scorecard}) >= 4
    for row in scorecard:
        assert row["tp"] + row["fp"] + row["fn"] + row["tn"] == 180


def test_scorecard_incumbent_wins_combined(scorecard):
    # The paper's claim transfers: the full pipeline (went-away +
    # seasonality filters) beats every single-analyzer challenger on
    # combined error over the mixed corpus.
    assert scorecard[0]["type"] == "incumbent"
    incumbent = scorecard[0]
    assert incumbent["fp_rate"] <= 0.05
    assert incumbent["fn_rate"] <= 0.05
    assert incumbent["errors"] == 0


def test_scorecard_measures_latency(scorecard):
    # Fired true regressions carry a claimed change index; latency from
    # the injected change must be sane (within the window, not wildly
    # early).
    for row in scorecard:
        if row["latency_n"] == 0:
            continue
        assert -50 <= row["latency_mean"] <= 200, row["id"]
    incumbent = next(row for row in scorecard if row["type"] == "incumbent")
    assert incumbent["latency_n"] > 0


def test_scorecard_challengers_trade_errors(scorecard):
    # Single-analyzer challengers fire on some windows (they are not
    # dead weight) but pay benign-family FPs or misses
    # the incumbent avoids — the BIPeC motivation for running a panel.
    incumbent = next(row for row in scorecard if row["type"] == "incumbent")
    challengers = [row for row in scorecard if row["type"] != "incumbent"]
    assert challengers
    assert any(row["tp"] > 0 for row in challengers)
    assert any(row["combined"] > incumbent["combined"] for row in challengers)


def test_scorecard_emit(scorecard):
    rows = [
        f"{'detector':28s} {'FP':>6s} {'FN':>6s} {'comb':>6s} "
        f"{'lat(pts)':>9s} {'err':>4s}  family FPs",
    ]
    for row in scorecard:
        latency = "-" if row["latency_mean"] is None else f"{row['latency_mean']:.1f}"
        families = ", ".join(
            f"{kind}={count}" for kind, count in sorted(row["family_fp"].items())
        ) or "-"
        rows.append(
            f"{row['id']:28s} {row['fp_rate']:6.3f} {row['fn_rate']:6.3f} "
            f"{row['combined']:6.3f} {latency:>9s} {row['errors']:>4d}  {families}"
        )
    rows.append("ranked by combined FP+FN; corpus = fig8 (25 pos / 155 neg)")
    rows.append("Hunter-style E-divisive and DP single analyzers vs the full pipeline")
    emit("Detector scorecard — default suite over the Figure 8 corpus", rows)
    assert [row["combined"] for row in scorecard] == sorted(
        row["combined"] for row in scorecard
    )
