#!/usr/bin/env python
"""Generate the Mozilla corpus slice deterministically.

The slice is a small corpus in the schema of *"A Dataset of Performance
Measurements and Alerts from Mozilla"* (arXiv 2503.16332): Perfherder
signature series plus sheriff-triaged alerts.  The real multi-GB
artifact cannot be downloaded here, so this script synthesizes a slice
with the same shape and the same labeling semantics, seeded and
value-rounded so every generation is byte-identical.  Nothing commits
its output: ``benchmarks/bench_mozilla_corpus.py``,
``scripts/run_connector_smoke.py`` and ``tests/test_connectors_mozilla.py``
each write one into a temporary directory (:func:`write_slice`).  It
holds:

- four genuine step regressions (5–12%) with *valid* alerts
  (``acknowledged``/``fixed`` — ground truth for the FP/FN benchmark);
- one transient spike whose alert the sheriffs marked ``invalid`` — a
  documented false positive of Mozilla's detector that a good pipeline
  must NOT flag;
- one improvement (mean drops) whose alert has
  ``is_regression: false`` — also not ground truth;
- six quiet signatures (plain noise, one noisier, one slow drift) with
  no alerts at all.

Usage::

    PYTHONPATH=src python scripts/make_mozilla_slice.py --out slice.json
"""

import argparse
import json
import os
import sys

import numpy as np

SEED = 163332  # nod to arXiv 2503.16332
START = 1_700_000_000  # epoch-aligned corpus start
INTERVAL = 3600.0  # hourly pushes
N_POINTS = 240  # ten days of measurements per signature

# (signature_id, framework, suite, platform, test, unit, base,
#  noise_fraction, shape, shape_args)
SIGNATURES = [
    (101, "talos", "tp5o", "windows10-64", "responsiveness", "ms",
     320.0, 0.01, "step", {"at": 150, "relative": 0.08}),
    (102, "talos", "damp", "linux1804-64", "open-tab", "ms",
     145.0, 0.01, "step", {"at": 168, "relative": 0.05}),
    (103, "browsertime", "amazon", "android-hw-a51", "fcp", "ms",
     890.0, 0.01, "step", {"at": 140, "relative": 0.12}),
    (104, "awsy", "memory", "windows10-64", "base-memory", "bytes",
     5200.0, 0.01, "step", {"at": 176, "relative": 0.06}),
    (105, "talos", "tsvgx", "macosx1015-64", "svg-render", "ms",
     410.0, 0.01, "spike", {"at": 155, "relative": 0.25, "width": 3}),
    (106, "browsertime", "google", "linux1804-64", "loadtime", "ms",
     1340.0, 0.01, "step", {"at": 160, "relative": -0.09}),
    (107, "talos", "tp5o", "linux1804-64", "responsiveness", "ms",
     305.0, 0.01, "flat", {}),
    (108, "talos", "damp", "windows10-64", "open-tab", "ms",
     152.0, 0.01, "flat", {}),
    (109, "browsertime", "amazon", "windows10-64", "fcp", "ms",
     910.0, 0.02, "flat", {}),
    (110, "awsy", "memory", "linux1804-64", "base-memory", "bytes",
     4900.0, 0.01, "flat", {}),
    (111, "talos", "tsvgx", "windows10-64", "svg-render", "ms",
     395.0, 0.01, "drift", {"total_relative": 0.01}),
    (112, "browsertime", "google", "windows10-64", "loadtime", "ms",
     1290.0, 0.01, "flat", {}),
]

# (signature_id, step_index, is_regression, status)
ALERTS = [
    (101, 150, True, "acknowledged"),
    (102, 168, True, "acknowledged"),
    (103, 140, True, "fixed"),
    (104, 176, True, "acknowledged"),
    (105, 155, True, "invalid"),   # sheriffs rejected the transient
    (106, 160, False, "acknowledged"),  # improvement, not a regression
]


def make_values(rng, base, noise_fraction, shape, shape_args):
    values = rng.normal(base, base * noise_fraction, N_POINTS)
    if shape == "step":
        at = shape_args["at"]
        values[at:] += base * shape_args["relative"]
    elif shape == "spike":
        at, width = shape_args["at"], shape_args["width"]
        values[at:at + width] += base * shape_args["relative"]
    elif shape == "drift":
        values += np.linspace(0.0, base * shape_args["total_relative"], N_POINTS)
    elif shape != "flat":
        raise ValueError(f"unknown shape: {shape}")
    return values


def build_slice():
    rng = np.random.default_rng(SEED)
    series = []
    for (signature_id, framework, suite, platform, test, unit,
         base, noise_fraction, shape, shape_args) in SIGNATURES:
        values = make_values(rng, base, noise_fraction, shape, shape_args)
        series.append({
            "signature_id": signature_id,
            "framework": framework,
            "suite": suite,
            "test": test,
            "platform": platform,
            "repository": "autoland",
            "unit": unit,
            "lower_is_better": True,
            "measurements": [
                [int(START + index * INTERVAL), round(float(value), 3)]
                for index, value in enumerate(values)
            ],
        })
    alerts = [
        {
            "signature_id": signature_id,
            "push_timestamp": int(START + step_index * INTERVAL),
            "is_regression": is_regression,
            "status": status,
        }
        for signature_id, step_index, is_regression, status in ALERTS
    ]
    return {
        "dataset": "mozilla-perf-alerts-slice (arXiv 2503.16332 schema)",
        "interval_seconds": INTERVAL,
        "series": series,
        "alerts": alerts,
    }


def write_slice(path):
    """Write the slice to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build_slice(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(f"wrote {write_slice(args.out)} ({os.path.getsize(args.out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
