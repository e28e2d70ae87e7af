"""Self-test of the end-to-end benchmark harness (``--quick`` sizes).

Run explicitly — tier-1 collects only ``tests/``::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_harness.py

It checks the harness, not the service's speed: inputs and outputs
repeat for a seed, worker processes do not change what is reported, the
tracer leaves ``src/`` as it found it, and a run that loses samples or
gets an error back cannot pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import driver  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SECONDS = 20.0


def test_same_seed_same_outputs_other_seed_other_inputs():
    first = driver.run_workload("dirty_backfill", 11, SECONDS, quick=True)
    again = driver.run_workload("dirty_backfill", 11, SECONDS, quick=True)
    assert first.correct, first.problems
    assert first.inputs_fingerprint == again.inputs_fingerprint
    for key in driver.EXACT_KEYS:
        assert first.exact[key] == again.exact[key], key
    other = workloads.build("dirty_backfill", 12, SECONDS, quick=True)
    assert other.fingerprint() != first.inputs_fingerprint


def test_worker_processes_do_not_change_reports_and_tracer_restores_src():
    before = {target.layer: layers.resolve(target)[2] for target in layers.TARGETS}
    parallel = driver.run_workload("restart_parallel", 5, SECONDS, trace=True, quick=True)
    serial = driver.run_workload("restart_parallel", 5, SECONDS, quick=True, workers=1)
    assert parallel.correct, parallel.problems
    assert serial.correct, serial.problems
    assert parallel.exact["reports_delivered"] > 0
    assert parallel.exact["report_digest"] == serial.exact["report_digest"]
    assert parallel.exact["funnel"] == serial.exact["funnel"]

    # Spans crossed the process boundary and every layer resolved ...
    assert parallel.layers_missing == []
    assert parallel.per_layer["service.parallel.worker_busy_s"][0] > 0
    assert parallel.per_layer["core.pipeline.run_ms_per_series"][0] > 0
    # ... and the wrapped attributes are the originals again.
    for target in layers.TARGETS:
        assert layers.resolve(target)[2] is before[target.layer], target.layer


def test_missing_layer_is_listed_not_fatal():
    gone = layers.Target(
        "core.nowhere.call", "repro.core.pipeline", "DetectionPipeline.nope", layers.ACC
    )
    installed = layers.install((gone,) + layers.TARGETS[:2])
    try:
        assert installed.missing == ["core.nowhere.call"]
        assert len(installed.patched) == 2
    finally:
        installed.uninstall()


def _contract_run(*extra):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3", "--seconds", "20",
         "--trace", "0", "--quick", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def test_truncated_body_fails_the_run():
    code, result, stderr = _contract_run("--workload", "steady_wire", "--sabotage", "truncate_body")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "HTTP 400" in stderr and "samples_lost" in stderr


def test_withheld_frame_fails_the_run():
    code, result, stderr = _contract_run(
        "--workload", "dirty_backfill", "--sabotage", "withhold_frame"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 0  # no call failed: the samples just never arrived
    assert "samples_lost" in stderr
