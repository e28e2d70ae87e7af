"""Importer for the Mozilla performance-measurements dataset.

The data artifact *"A Dataset of Performance Measurements and Alerts
from Mozilla"* (arXiv 2503.16332) publishes Perfherder's production
telemetry: per-signature measurement time series (a signature is one
(framework, suite, test, platform, repository) combination) plus the
alerts Mozilla's detection filed on them, each triaged by a perf
sheriff (acknowledged / invalid / ...).  That makes it a *labelled*
real-world corpus: the acknowledged regression alerts are ground truth,
and any detector can be scored FP/FN against them.

This module reads a JSON slice of that artifact — the one
``scripts/make_mozilla_slice.py`` generates carries the schema below; a
full download converts into the same shape — and feeds it through the
service's front door so imported measurements get admission, detection,
and sink delivery exactly like native telemetry::

    {"dataset": "...", "interval_seconds": 3600,
     "series": [{"signature_id": 101, "framework": "talos",
                 "suite": "tp5o", "test": "responsiveness",
                 "platform": "windows10-64", "repository": "autoland",
                 "unit": "ms", "lower_is_better": true,
                 "measurements": [[push_timestamp, value], ...]}, ...],
     "alerts": [{"signature_id": 101, "push_timestamp": 1700003600,
                 "is_regression": true, "status": "acknowledged"}, ...]}

Ground truth (:meth:`MozillaCorpus.labeled_regressions`) is the set of
``is_regression`` alerts whose sheriff status is *not* in
:data:`INVALID_STATUSES` — an alert the sheriffs rejected is a
documented false positive of *Mozilla's* detector, and treating it as
truth would penalize a detector for being right.

The FP/FN benchmark over this corpus lives in
``benchmarks/bench_mozilla_corpus.py`` and is gated in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, Iterator, List, Tuple, Union

from repro.connectors.importers import ImportStats
from repro.connectors.mapping import SeriesMapper
from repro.obs.logging import get_logger
from repro.service.ingest import Sample

__all__ = [
    "INVALID_STATUSES",
    "MozillaAlert",
    "MozillaCorpus",
    "MozillaSeries",
    "load_corpus",
    "corpus_samples",
    "import_corpus",
]

_log = get_logger("repro.connectors.mozilla")

#: Sheriff statuses that void an alert as ground truth.
INVALID_STATUSES = frozenset({"invalid", "wontfix", "downstream"})


@dataclass(frozen=True)
class MozillaSeries:
    """One Perfherder signature's measurement series."""

    signature_id: int
    framework: str
    suite: str
    test: str
    platform: str
    repository: str
    unit: str
    lower_is_better: bool
    measurements: Tuple[Tuple[float, float], ...]

    @property
    def external_name(self) -> str:
        """The dotted external identity a signature maps under.

        The test name goes last so the mapper's short ``metric`` tag —
        the last dotted component, what monitor ``series_filter``
        matching keys on — is the test, not the repository.
        """
        return (
            f"mozilla.{self.framework}.{self.suite}.{self.platform}."
            f"{self.repository}.{self.test}"
        )


@dataclass(frozen=True)
class MozillaAlert:
    """One Perfherder alert with its sheriff triage verdict."""

    signature_id: int
    push_timestamp: float
    is_regression: bool
    status: str

    @property
    def valid_regression(self) -> bool:
        """Whether this alert counts as ground truth."""
        return self.is_regression and self.status not in INVALID_STATUSES


@dataclass
class MozillaCorpus:
    """A loaded slice: series, alerts, and the collection cadence."""

    dataset: str
    interval_seconds: float
    series: List[MozillaSeries] = field(default_factory=list)
    alerts: List[MozillaAlert] = field(default_factory=list)

    def labeled_regressions(
        self, mapper: SeriesMapper
    ) -> Dict[str, List[float]]:
        """Ground-truth regression times keyed by *internal* series name.

        Uses the same mapper the importer does, so benchmark labels and
        delivered reports meet in one namespace.
        """
        by_signature = {entry.signature_id: entry for entry in self.series}
        labels: Dict[str, List[float]] = {}
        for alert in self.alerts:
            if not alert.valid_regression:
                continue
            entry = by_signature.get(alert.signature_id)
            if entry is None:
                continue
            mapped = mapper.map(entry.external_name)
            labels.setdefault(mapped.name, []).append(float(alert.push_timestamp))
        for times in labels.values():
            times.sort()
        return labels

    @property
    def span(self) -> Tuple[float, float]:
        """(earliest, latest) measurement timestamp across every series."""
        first = min(entry.measurements[0][0] for entry in self.series)
        last = max(entry.measurements[-1][0] for entry in self.series)
        return first, last


def _series_labels(entry: MozillaSeries) -> Dict[str, str]:
    return {
        "framework": entry.framework,
        "suite": entry.suite,
        "test": entry.test,
        "platform": entry.platform,
        "repository": entry.repository,
        "unit": entry.unit,
        "signature": str(entry.signature_id),
    }


def load_corpus(source: Union[str, IO[str]]) -> MozillaCorpus:
    """Load a corpus slice from a path or open stream.

    Raises:
        ValueError: On a structurally invalid slice (missing keys,
            unsorted or empty measurement lists) — a silently
            half-loaded corpus would quietly skew every score computed
            over it.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    try:
        corpus = MozillaCorpus(
            dataset=str(payload["dataset"]),
            interval_seconds=float(payload["interval_seconds"]),
        )
        for raw in payload["series"]:
            measurements = tuple(
                (float(ts), float(value)) for ts, value in raw["measurements"]
            )
            if not measurements:
                raise ValueError(
                    f"signature {raw.get('signature_id')} has no measurements"
                )
            if any(
                later[0] <= earlier[0]
                for earlier, later in zip(measurements, measurements[1:])
            ):
                raise ValueError(
                    f"signature {raw.get('signature_id')} measurements "
                    "must be strictly time-ordered"
                )
            corpus.series.append(
                MozillaSeries(
                    signature_id=int(raw["signature_id"]),
                    framework=str(raw["framework"]),
                    suite=str(raw["suite"]),
                    test=str(raw["test"]),
                    platform=str(raw["platform"]),
                    repository=str(raw.get("repository", "autoland")),
                    unit=str(raw.get("unit", "")),
                    lower_is_better=bool(raw.get("lower_is_better", True)),
                    measurements=measurements,
                )
            )
        for raw in payload.get("alerts", []):
            corpus.alerts.append(
                MozillaAlert(
                    signature_id=int(raw["signature_id"]),
                    push_timestamp=float(raw["push_timestamp"]),
                    is_regression=bool(raw["is_regression"]),
                    status=str(raw.get("status", "untriaged")),
                )
            )
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed Mozilla corpus slice: {error!r}") from None
    if not corpus.series:
        raise ValueError("corpus slice has no series")
    return corpus


def corpus_samples(
    corpus: MozillaCorpus, mapper: SeriesMapper
) -> Iterator[Sample]:
    """Yield every measurement as a mapped Sample, in push-time order
    (by timestamp, then signature id), the way a live feed delivers it.

    Signature identity lives in the mapped *name*; the Perfherder
    dimensions (framework, suite, platform, ...) ride along as tags so
    monitors can filter on them without the name carrying a label
    suffix.
    """
    heads = []
    for entry in corpus.series:
        mapped = mapper.map(entry.external_name)
        tags = dict(mapped.tags)
        tags.update(_series_labels(entry))
        heads.append((entry, mapped.name, tags))
    points = [
        (ts, entry.signature_id, value, name, tags)
        for entry, name, tags in heads
        for ts, value in entry.measurements
    ]
    points.sort(key=lambda item: (item[0], item[1]))
    for ts, _, value, name, tags in points:
        yield Sample(name, ts, value, tags)


def import_corpus(
    service, corpus: MozillaCorpus, mapper: SeriesMapper = None
) -> ImportStats:
    """Offer the whole corpus to ``service``; returns import stats."""
    mapper = mapper or SeriesMapper(source="mozilla")
    stats = ImportStats()
    stats.offer(service, corpus_samples(corpus, mapper))
    _log.info(
        "mozilla corpus imported",
        dataset=corpus.dataset,
        series=stats.series,
        offered=stats.offered,
        accepted=stats.accepted,
    )
    return stats
