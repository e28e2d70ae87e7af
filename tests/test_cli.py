"""Tests for repro.cli."""

import csv
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.faults import FaultKind


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--preset", "invoicer_short", "--out", "/tmp/x.csv"]
        )
        assert args.command == "simulate"
        assert args.preset == "invoicer_short"

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--preset", "nope", "--out", "x"])


class TestPresetsCommand:
    def test_lists_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "invoicer_short" in out
        assert "frontfaas_small" in out


class TestSimulateCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(
            [
                "simulate",
                "--preset", "invoicer_short",
                "--ticks", "120",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["timestamp", "value"]
        assert len(rows) == 121

    def test_unknown_metric_errors(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(
            [
                "simulate",
                "--preset", "invoicer_short",
                "--ticks", "50",
                "--metric", "does.not.exist",
                "--out", str(out),
            ]
        )
        assert code == 2


class TestDetectCommand:
    def _write_csv(self, path, values, interval=60.0):
        with path.open("w", newline="") as sink:
            writer = csv.writer(sink)
            writer.writerow(["timestamp", "value"])
            for i, value in enumerate(values):
                writer.writerow([i * interval, value])

    def test_detects_regression(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] += 0.0002
        path = tmp_path / "series.csv"
        self._write_csv(path, values)
        code = main(["detect", str(path), "--config", "frontfaas_small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "regressions reported:   1" in out

    def test_clean_series_exit_code_one(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "series.csv"
        self._write_csv(path, rng.normal(0.001, 0.00002, 900))
        assert main(["detect", str(path)]) == 1

    def test_too_short_errors(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        self._write_csv(path, [0.001] * 5)
        assert main(["detect", str(path)]) == 2

    def test_threshold_override(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] += 0.0002
        path = tmp_path / "series.csv"
        self._write_csv(path, values)
        # An absurdly high threshold suppresses the report.
        assert main(["detect", str(path), "--threshold", "0.5"]) == 1

    def test_headerless_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] += 0.0002
        path = tmp_path / "series.csv"
        with path.open("w", newline="") as sink:
            writer = csv.writer(sink)
            for i, value in enumerate(values):
                writer.writerow([i * 60.0, value])
        assert main(["detect", str(path), "--config", "frontfaas_small"]) == 0

    def test_capitalised_header_and_a_garbage_row_are_read_not_raised(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(0.001, 0.00002, 900)
        values[700:] += 0.0002
        path = tmp_path / "series.csv"
        with path.open("w", newline="") as sink:
            writer = csv.writer(sink)
            writer.writerow(["Timestamp", "Value"])
            for i, value in enumerate(values):
                writer.writerow([i * 60.0, value])
                if i == 450:
                    writer.writerow(["not-a-time", "oops"])
        assert main(["detect", str(path), "--config", "frontfaas_small"]) == 0
        captured = capsys.readouterr()
        assert "regressions reported:   1" in captured.out
        assert "skipped 1 malformed rows" in captured.err

    def test_long_form_naming_two_series_is_refused(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        with path.open("w", newline="") as sink:
            writer = csv.writer(sink)
            writer.writerow(["name", "timestamp", "value"])
            for i in range(60):
                writer.writerow([f"svc.s{i % 2}.gcpu", i * 60.0, 0.001])
        assert main(["detect", str(path)]) == 2
        assert "names 2 series" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["detect", str(tmp_path / "missing.csv")]) == 2


class TestServeDemoCommand:
    def test_streams_and_prints_stats(self, capsys):
        code = main(
            [
                "serve-demo",
                "--preset", "invoicer_short",
                "--ticks", "120",
                "--shards", "2",
                "--regress", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "through 2 shard(s)" in out
        assert "ServiceStats" in out
        assert "incident reports delivered:" in out

    def test_checkpoint_dir_written(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        code = main(
            [
                "serve-demo",
                "--preset", "invoicer_short",
                "--ticks", "60",
                "--shards", "1",
                "--regress", "0",
                "--checkpoint-dir", str(directory),
            ]
        )
        assert code == 0
        assert (directory / "manifest.json").is_file()
        assert "checkpoint written to" in capsys.readouterr().out

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-demo", "--policy", "explode"])

    def test_parallel_workers(self, capsys):
        code = main(
            [
                "serve-demo",
                "--preset", "invoicer_short",
                "--ticks", "120",
                "--shards", "2",
                "--workers", "2",
                "--regress", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "through 2 shard(s), 2 worker(s)" in out
        assert "incremental scan cache:" in out
        assert "per-shard advance latency:" in out

    def test_workers_must_be_positive(self, capsys):
        code = main(
            [
                "serve-demo",
                "--preset", "invoicer_short",
                "--ticks", "10",
                "--workers", "0",
            ]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind", ["data_gap", "checkpoint_corrupt", "clock_skew", "flusher_death"]
    )
    def test_fault_plan_naming_a_removed_kind_is_refused(self, kind, tmp_path, capsys):
        """Data, disk and clock damage are done from outside, and the
        service runs no flusher to kill; a plan that still names one of
        them fails loudly instead of injecting nothing."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 1, "specs": [{"kind": kind}]}), encoding="utf-8")
        code = main(
            [
                "serve-demo",
                "--preset", "invoicer_short",
                "--ticks", "10",
                "--fault-plan", str(plan),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown or missing fault kind" in err and kind in err

    def test_fault_plan_help_names_the_three_kinds(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-demo", "--help"])
        usage = " ".join(capsys.readouterr().out.split())
        for kind in FaultKind:
            assert kind.value in usage
        assert "damage the data itself with --dirty-data" in usage
