"""Detection runtime: the always-on monitoring service.

"For ease of operation, FBDetect runs on a common serverless platform at
Meta, scanning different time series in parallel" (§5.1).  This package
provides that operational layer: a scheduler that owns many registered
monitors (one per service/configuration pair), runs their periodic scans,
applies TSDB retention and *returns* what each scan found; ``publish``
records those outcomes into a metrics registry and trace store, and
``deliver`` / ``deliver_outcomes`` fan incident reports out to pluggable
sinks.
"""

from repro.runtime.scheduler import DetectionScheduler, MonitorRegistration, ScanOutcome
from repro.runtime.scheduler import deliver_outcomes, publish
from repro.runtime.sinks import CollectingSink, IncidentSink, deliver

__all__ = [
    "CollectingSink",
    "DetectionScheduler",
    "IncidentSink",
    "MonitorRegistration",
    "ScanOutcome",
    "deliver",
    "deliver_outcomes",
    "publish",
]
