"""The view payloads, byte for byte: what the endpoints serve is a golden.

The read side of the service is one ``path -> view`` table
(:mod:`repro.service.views`) folding over shard accessors; before that
the same payloads were built by methods on the service that reached
through to each shard's worker and scheduler.  The golden beside this
test is generated over real HTTP from one seeded drill — the fence fleet
plus dirt (reordered and NaN-burst from outside by
:mod:`repro.fleet.dirty`), two shadow challengers, a worker-crash plan,
an unquarantine and a checkpoint — once with ``workers=1`` and once with
``workers=2``; the five JSON payloads must equal it, with the fields
that read a clock masked.

Regenerate (only when a payload is *meant* to change)::

    PYTHONPATH=src python tests/test_views_golden.py --write
"""

import json
import os
import sys
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.fleet.dirty import DirtyDataSpec, dirty_stream
from repro.obs import ObservabilityServer
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, StreamingDetectionService

import test_publish_seam as seam
import test_report_fence as fence

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "views_golden.json")
PATHS = ("/healthz", "/status", "/faults", "/quality", "/detectors")

#: Keys whose values read a clock, wherever they sit in a payload.
CLOCKED = ("wall", "seconds", "last_at", "age_seconds")

PLAN = FaultPlan(seed=22, specs=(
    FaultSpec(FaultKind.WORKER_CRASH, after=2, times=1),
))

#: Damage to each round's dirt: local reordering, and a NaN burst on a
#: series that stays quarantined.
DIRT = DirtyDataSpec(seed=22, reorder_block=12, nan_series=("dirt.holed.gcpu",), nan_bursts=1)


def _masked(value):
    """``value`` with every clock reading replaced by whether it is set."""
    if isinstance(value, dict):
        return {
            key: ("<clock>" if key in CLOCKED and item is not None else _masked(item))
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_masked(item) for item in value]
    return value


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def run_drill(workers, tmp_dir):
    """``{path: {"status": code, "payload": masked JSON}}`` after the drill."""
    names, tags, values = fence._fleet()
    service = StreamingDetectionService(
        n_shards=2, workers=workers, sinks=[CollectingSink()],
        queue_capacity=1 << 16, backpressure=BackpressurePolicy.BLOCK,
        fault_injector=FaultInjector(PLAN),
    )
    service.register_monitor(
        "fence", fence.CONFIG, series_filter={"metric": "gcpu"},
        shadow=["mad", ("threshold", {"level": 1e-4})],
    )
    try:
        start = 0
        for stop in range(fence.PRELOAD_POINTS, seam.N_POINTS + 1, fence.POINTS_PER_ROUND):
            service.ingest_many(fence._samples(names, tags, values, start, stop))
            service.ingest_many(dirty_stream(seam._dirt(start, stop), DIRT))
            service.advance_to(stop * fence.INTERVAL)
            start = stop
        service.unquarantine("dirt.burst.gcpu")
        service.checkpoint(os.path.join(tmp_dir, f"ckpt-{workers}"))
        with ObservabilityServer(service) as server:
            return {
                path: dict(zip(("status", "payload"), _get(server.url + path)))
                for path in PATHS
            }
    finally:
        service.close()


def _drilled(tmp_dir):
    return {
        f"workers={workers}": {
            path: {"status": view["status"], "payload": _masked(view["payload"])}
            for path, view in run_drill(workers, tmp_dir).items()
        }
        for workers in (1, 2)
    }


@pytest.fixture(scope="module")
def drilled(tmp_path_factory):
    return _drilled(str(tmp_path_factory.mktemp("views")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as source:
        return json.load(source)


@pytest.mark.parametrize("workers", ["workers=1", "workers=2"])
@pytest.mark.parametrize("path", PATHS)
def test_payload_equals_the_parent_commits(drilled, golden, workers, path):
    assert drilled[workers][path] == golden[workers][path]


def test_the_drill_reaches_every_branch_of_every_view(golden):
    """A golden of empty payloads guards nothing."""
    views = golden["workers=2"]
    assert all(view["status"] == 200 for view in views.values())
    health = views["/healthz"]["payload"]
    assert health["checkpoint"] == {"last_at": "<clock>", "age_seconds": "<clock>"}
    assert len(health["shards"]) == 2 and health["workers"] == 2
    status = views["/status"]["payload"]
    assert status["scans"] > 0 and status["reported"] > 0
    assert status["funnel_trace"]["telescopes"] and status["ingest"]["flushed"] > 0
    faults = views["/faults"]["payload"]
    assert faults["enabled"] and faults["plan"]["injected_total"] > 0
    kinds = {event["kind"] for event in faults["events"]}
    assert {"fault_injected", "series_unquarantined", "checkpoint_written"} <= kinds
    quality = views["/quality"]["payload"]
    assert quality["counters"]["quarantined"] > quality["quarantined_points"] > 0
    assert quality["counters"]["reordered"] > 0 and quality["stale_series"]
    detectors = views["/detectors"]["payload"]
    assert len(detectors["detectors"]) == 2
    assert all(row["tally"]["scans"] > 0 for row in detectors["detectors"])


if __name__ == "__main__":
    if "--write" not in sys.argv:
        raise SystemExit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        written = _drilled(scratch)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as sink:
        json.dump(written, sink, indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {GOLDEN}: {len(PATHS)} payloads x {len(written)} drills")
