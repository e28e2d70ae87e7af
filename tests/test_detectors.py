"""The detector library: IDs, the default suite, library behavior."""

import os
import subprocess
import sys
from unittest.mock import patch

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.detector import FBDetect
from repro.detectors import (
    DetectorDecision,
    DetectorWindow,
    EDivisiveDetector,
    IncumbentDetector,
    MADDetector,
    ThresholdDetector,
    default_suite,
    make_detector_id,
    param_hash,
)
from repro.tsdb import WindowSpec
from repro.workloads import generate_corpus, generators

HISTORIC, ANALYSIS, EXTENDED = 400, 150, 50
CHANGE_OFFSET = 60  # into the analysis window
BASE, SHIFT = 0.001, 0.0005


def make_window(shift=0.0, seed=4):
    rng = np.random.default_rng(seed)
    values = rng.normal(BASE, BASE * 0.02, HISTORIC + ANALYSIS + EXTENDED)
    if shift:
        values[HISTORIC + CHANGE_OFFSET :] += shift
    return DetectorWindow(
        historic=values[:HISTORIC],
        analysis=values[HISTORIC : HISTORIC + ANALYSIS],
        extended=values[HISTORIC + ANALYSIS :],
    )


class TestIdentity:
    def test_param_hash_key_order_insensitive(self):
        assert param_hash({"b": 2, "a": 1}) == param_hash({"a": 1, "b": 2})

    def test_param_hash_distinguishes_values(self):
        assert param_hash({"a": 1}) != param_hash({"a": 2})

    def test_id_format(self):
        det_id = make_detector_id("mad", 1, {"coefficient": 3.0, "min_run": 5})
        assert det_id.startswith("mad-v1-")
        assert len(det_id.split("-")[-1]) == 8

    def test_version_changes_id(self):
        params = {"coefficient": 3.0}
        assert make_detector_id("mad", 1, params) != make_detector_id(
            "mad", 2, params
        )

    def test_pinned_default_ids(self):
        # Literal pins: scorecard rows are compared across runs and
        # commits on these strings — changing a default parameter or the
        # hashing scheme must be a conscious, version-bumped act.
        assert IncumbentDetector().detector_id == "incumbent-v2-fdfcba4f"
        assert IncumbentDetector(threshold=0.000004).detector_id == (
            "incumbent-v2-e25e062c"  # the default_suite / fig8 tuning
        )
        assert EDivisiveDetector().detector_id == "e_divisive-v1-6040f0e3"
        assert MADDetector().detector_id == "mad-v1-6a16dc1f"
        # The default_suite preset level (note: 0.001 * 1.05 != 0.00105
        # in binary floating point — the hash sees the repr default_suite
        # actually produces).
        assert ThresholdDetector(level=0.001 * 1.05).detector_id == (
            "threshold-v1-41d530c8"
        )

    def test_ids_stable_across_hash_seeds(self):
        # PYTHONHASHSEED randomizes str hashing per process; detector IDs
        # (like correlation IDs) must not move.
        script = (
            "from repro.detectors import default_suite;"
            "print(','.join(d.detector_id for d in default_suite()))"
        )
        outputs = set()
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        assert "mad-v1-6a16dc1f" in outputs.pop()


class TestRegistry:
    """The default suite: one of each built-in type."""

    def test_default_suite_covers_registry(self):
        suite = default_suite()
        assert len(suite) == 5
        assert len({d.detector_id for d in suite}) == 5
        assert {d.type_name for d in suite} == {
            "incumbent", "e_divisive", "dp_change", "mad", "threshold"
        }


class TestLibrary:
    @pytest.mark.parametrize("detector", default_suite(), ids=lambda d: d.type_name)
    def test_fires_on_step(self, detector):
        decision = detector.scan(make_window(shift=SHIFT))
        assert decision.fired
        assert decision.magnitude > 0
        # Global-index contract: the claimed change point lands at (or
        # near) the injected one, far past the historic window.
        assert abs(decision.index - (HISTORIC + CHANGE_OFFSET)) <= 10

    @pytest.mark.parametrize("detector", default_suite(), ids=lambda d: d.type_name)
    def test_quiet_on_noise(self, detector):
        decision = detector.scan(make_window())
        assert not decision.fired
        assert decision.index is None
        assert decision.detail

    def test_mad_zero_dispersion_is_quiet(self):
        flat = DetectorWindow(
            historic=np.full(100, BASE),
            analysis=np.full(40, BASE + SHIFT),
            extended=np.full(10, BASE + SHIFT),
        )
        decision = MADDetector().scan(flat)
        assert not decision.fired
        assert "dispersion" in decision.detail

    def test_decision_quiet_constructor(self):
        decision = DetectorDecision.quiet("why")
        assert not decision.fired
        assert decision.index is None
        assert decision.detail == "why"

    def test_window_from_labeled(self):
        from repro.workloads import WindowKind, generate_labeled_window

        labeled = generate_labeled_window(
            WindowKind.REGRESSION, np.random.default_rng(0)
        )
        window = DetectorWindow.from_labeled(labeled)
        assert window.analysis_start == labeled.historic_points
        assert window.full.size == labeled.values.size
        assert labeled.change_index >= window.analysis_start


class TestIncumbentIsThePipeline:
    """The incumbent's row is the Figure 6 pipeline's own verdict: on a
    seeded slice of the generated corpus it fires exactly when
    ``FBDetect.detect_series`` reports, at the change point the report
    carries (a one-second grid makes its time the global index) — also
    where the pipeline's own gates decide, as on a history too short to
    scan."""

    THRESHOLD = 0.000004

    @staticmethod
    def _corpus(historic_points, extended_points):
        with patch.multiple(
            generators, HISTORIC_POINTS=historic_points, EXTENDED_POINTS=extended_points
        ):
            return generate_corpus(5, 3, 4, n_seasonal=2, n_wobble=3, n_drift=2, seed=43)

    def test_fires_exactly_when_fbdetect_reports(self):
        detector = IncumbentDetector(threshold=self.THRESHOLD)
        corpus = [
            window
            for historic_points, extended_points in ((400, 50), (400, 0), (10, 50))
            for window in self._corpus(historic_points, extended_points)
        ]
        fired = 0
        for labeled in corpus:
            window = DetectorWindow.from_labeled(labeled)
            spec = WindowSpec(
                historic=float(window.historic.size),
                analysis=float(window.analysis.size),
                extended=float(window.extended.size),
            )
            config = DetectionConfig(
                name="slice", threshold=self.THRESHOLD, windows=spec, long_term=False
            )
            reported = FBDetect(config).detect_series(window.full).reported
            decision = detector.scan(window)
            assert decision.fired == bool(reported), (labeled.kind, window.historic.size)
            if reported:
                fired += 1
                assert decision.index == int(reported[0].change_time)
                assert decision.magnitude == pytest.approx(reported[0].magnitude)
        assert 0 < fired < len(corpus)
