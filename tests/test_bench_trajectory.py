"""Tests for ``scripts/bench_trajectory.py`` (nothing is measured here):
synthetic ``BENCH_<n>.json`` trajectories in the shape
``scripts/pair_bench.py --json`` writes, against a two-metric contract,
then the committed trajectory itself.
"""

import json
import os
import statistics
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

import bench_trajectory  # noqa: E402
from bench_trajectory import MAX_HISTORY, MIN_HISTORY  # noqa: E402

CONTRACT = {
    "workloads": [{"name": "scan"}],
    "end_to_end": [
        {"name": "series_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10},
    ],
}
HOST = {"nproc": 2, "platform": "Linux-x86_64", "python": "3.11.7",
        "load_1m_at_start": 0.4, "noisy_host": False}
FLAT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 100.0]


def side(level):
    """Ten runs within +-0.5% of ``level``, as one side of a metric."""
    values = [level * (1.0 + 0.001 * (run - 4.5)) for run in range(10)]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def document(parent, change, host=HOST, rss=(200.0, 200.0), failed=(0, 0), exact_equal=True):
    """One PR's file: ``series_per_s`` went ``parent`` -> ``change``."""
    metrics = {
        "series_per_s": {"unit": "1/s", "better": "higher", "wins": 5,
                         "parent": side(parent), "change": side(change)},
        "peak_rss_mb": {"unit": "MB", "better": "lower", "wins": 5,
                        "parent": side(rss[0]), "change": side(rss[1])},
    }
    ops = {
        name: {"failed": count, "attempted": 500}
        for name, count in zip(("parent", "change"), failed)
    }
    return {"host": host, "workloads": {"scan": {
        "pairs": 10, "end_to_end": metrics, "ops": ops, "exact_equal": exact_equal,
    }}}


def trajectory(levels, hosts=None):
    """One file per level; each PR's parent side is the PR before it.
    The load at the start of a run differs every time: not a new host."""
    hosts = hosts or [HOST] * len(levels)
    return [
        document(levels[max(index - 1, 0)], level,
                 host=dict(hosts[index], load_1m_at_start=0.1 * index))
        for index, level in enumerate(levels)
    ]


@pytest.fixture()
def judge(tmp_path, capsys):
    """Write documents as ``BENCH_<n>.json`` and run the script on them:
    ``(exit code, what it printed)``."""
    def run(documents, first_pr=19):
        for stale in tmp_path.glob("BENCH_*.json"):
            stale.unlink()
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT), encoding="utf-8")
        for offset, content in enumerate(documents):
            path = tmp_path / f"BENCH_{first_pr + offset}.json"
            path.write_text(json.dumps(content), encoding="utf-8")
        return bench_trajectory.main(str(tmp_path)), capsys.readouterr().out
    return run


class TestOneFile:
    def test_passes_when_the_change_matches_its_parent(self, judge):
        code, printed = judge([document(100.0, 100.0, failed=(3, 3))])
        assert code == 0
        assert "gate passed" in printed

    def test_tolerates_a_drop_inside_the_bound(self, judge):
        # 16% below the parent: inside series_per_s's 25% bound.
        code, printed = judge([document(100.0, 84.0)])
        assert code == 0
        assert "+16.00%" in printed

    def test_one_worse_row_fails(self, judge):
        code, printed = judge([document(100.0, 60.0)])
        assert code == 1
        assert "BENCH_19 scan: series_per_s worse by 40.0%" in printed
        # Lower is better for memory: down passes, up past the bound fails.
        assert judge([document(100.0, 100.0, rss=(200.0, 150.0))])[0] == 0
        code, printed = judge([document(100.0, 100.0, rss=(200.0, 230.0))])
        assert code == 1
        assert "peak_rss_mb worse by 15.0%" in printed

    def test_fails_on_a_missing_metric(self, judge):
        content = document(100.0, 100.0)
        del content["workloads"]["scan"]["end_to_end"]["peak_rss_mb"]
        code, printed = judge([content])
        assert code == 1
        assert "BENCH_19 scan: metric peak_rss_mb missing" in printed
        content["workloads"] = {}
        code, printed = judge([content])
        assert code == 1
        assert "BENCH_19 scan: workload missing" in printed
        assert judge([])[0] == 1  # nothing committed is not a pass

    def test_fails_on_exact_outputs_that_differ(self, judge):
        code, printed = judge([document(100.0, 100.0, exact_equal=False)])
        assert code == 1
        assert "exact outputs differ" in printed

    def test_fails_on_a_higher_failed_op_share_on_the_change_side(self, judge):
        code, printed = judge([document(100.0, 100.0, failed=(3, 4))])
        assert code == 1
        assert "ops failed 0.8000% of attempts on the change side" in printed


class TestHistoryGate:
    def test_stable_history_passes(self, judge):
        code, printed = judge(trajectory(FLAT))
        assert code == 0
        assert "2 series of change-side medians, 2 long enough" in printed

    def test_short_history_only_records(self, judge):
        # A 30% drop over too few points: every row is on record (and
        # each step is inside its own PR's bound), nothing is judged.
        levels = [100.0, 100.0, 100.0, 85.0, 70.0, 70.0, 70.0][: MIN_HISTORY - 1]
        code, printed = judge(trajectory(levels))
        assert code == 0
        assert printed.count(" scan ") == 2 * len(levels)
        assert ", 0 long enough" in printed

    def test_detects_sustained_drop(self, judge):
        # Ten points, the last four 15% down: no single PR is outside its
        # 25% bound, the dogfooded CUSUM+LRT pair must flag the series.
        code, printed = judge(trajectory(FLAT[:6] + [85.0, 85.4, 84.6, 85.1]))
        assert code == 1
        assert "scan series_per_s: change point at point 6/10" in printed
        assert "worse, LRT p=" in printed
        assert "peak_rss_mb: change point" not in printed
        # For a lower-is-better metric the sustained *rise* is the drop.
        code, printed = judge([
            document(100.0, 100.0, rss=(200.0 if index < 7 else 230.0,) * 2)
            for index in range(10)
        ])
        assert code == 1
        assert "scan peak_rss_mb: change point at point 7/10" in printed

    def test_improvement_is_not_flagged(self, judge):
        levels = [100.0, 99.0, 101.0, 100.0, 130.0, 131.0, 129.0, 130.5, 130.2]
        assert judge(trajectory(levels))[0] == 0

    def test_a_host_change_starts_a_new_segment(self, judge):
        levels = FLAT[:8] + [70.0] * 8
        slower_box = dict(HOST, nproc=1)
        documents = trajectory(levels, [HOST] * 8 + [slower_box] * 8)
        # The first run on the new box measures its parent there too.
        documents[8] = document(70.0, 70.0, host=slower_box)
        code, printed = judge(documents)
        assert code == 0
        assert "4 series of change-side medians, 4 long enough" in printed
        # The same medians on one box are a 30% regression.
        documents = trajectory(levels)
        documents[8] = document(70.0, 70.0)
        code, printed = judge(documents)
        assert code == 1
        assert "series_per_s: change point at point 8/16" in printed

    def test_history_is_bounded(self, judge):
        # A drop accepted more than MAX_HISTORY points ago has rolled off.
        levels = [130.0] * 10 + (FLAT * 6)[:MAX_HISTORY]
        assert judge(trajectory(levels), first_pr=1)[0] == 0
        code, printed = judge(trajectory(levels[:MAX_HISTORY]), first_pr=1)
        assert code == 1
        assert f"series_per_s: change point at point 10/{MAX_HISTORY}" in printed


class TestCommittedTrajectory:
    def test_the_committed_files_pass(self, capsys):
        assert bench_trajectory.main() == 0
        printed = capsys.readouterr().out
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
            contract = json.load(source)
        rows_per_pr = len(contract["workloads"]) * len(contract["end_to_end"])
        for pr in (19, 20):
            assert os.path.isfile(os.path.join(REPO_ROOT, f"BENCH_{pr}.json"))
            rows = [line for line in printed.splitlines() if line.startswith(f" {pr} ")]
            assert len(rows) == rows_per_pr
