"""Mapping external telemetry identity into the internal series space.

Every importer and receiver in :mod:`repro.connectors` funnels through
one :class:`SeriesMapper`, so a Prometheus metric, a graphite dotted
path, and a CSV column that all describe the same measurement land on
the same internal series name and tag set — which is what the admission
layer (:mod:`repro.quality`), monitor ``series_filter`` matching, and
the blake2b alert correlation ids all key on.

The mapper does three jobs:

- **Name mangling.**  External names carry characters the internal
  series space never uses (``{}``, ``=``, spaces, ``/``); they are
  folded to ``_`` and the name is normalized to the internal dotted
  form.  Prometheus label sets are appended deterministically
  (sorted by label key) so the same labelled series always maps to the
  same internal name.
- **Unit and type tagging.**  Prometheus naming conventions encode the
  unit and accumulation semantics in the metric name
  (``*_seconds_total``, ``*_bytes``); the mapper lifts them into tags
  (``unit``, ``type``) so downstream consumers get structured metadata
  instead of string-sniffing.
- **Counter detection.**  Cumulative series (``*_total``, ``*_count``,
  ``*_sum``, or an explicit ``counter`` type from the source) are
  tagged ``type=counter`` — the tag the
  :class:`~repro.quality.admission.AdmissionController` keys its
  reset/rollover rebasing on, so an imported Prometheus counter gets
  the same repair a native one does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["MappedSeries", "SeriesMapper"]

#: Characters allowed in internal series names; runs of anything else
#: collapse to one ``_``.
_INVALID = re.compile(r"[^A-Za-z0-9_.:\-]+")
#: Unit suffixes lifted into ``tags["unit"]`` (Prometheus conventions).
_UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_seconds", "seconds"),
    ("_milliseconds", "milliseconds"),
    ("_ms", "milliseconds"),
    ("_microseconds", "microseconds"),
    ("_bytes", "bytes"),
    ("_ratio", "ratio"),
    ("_percent", "percent"),
    ("_celsius", "celsius"),
    ("_info", "info"),
)
#: Name suffixes that mark a cumulative (counter) series.
_COUNTER_SUFFIXES = ("_total", "_count", "_sum")
#: Source label keys that are identity, not tags (consumed by mapping).
_RESERVED_LABELS = frozenset({"__name__"})


@dataclass(frozen=True)
class MappedSeries:
    """One external series resolved to internal identity.

    Attributes:
        name: Internal series name (stable and deterministic in the
            external name + label set).
        tags: Internal tag set — external labels plus derived
            ``metric``/``unit``/``type``/``source`` metadata.
    """

    name: str
    tags: Dict[str, str] = field(default_factory=dict)


class SeriesMapper:
    """Maps external metric identity to internal series identity.

    Args:
        source: Connector name recorded under ``tags["source"]``
            (``csv``, ``jsonl``, ``remote_write``, ``mozilla`` ...).

    Mapping is pure and deterministic, so the same external series
    always lands on the same internal identity — across importers,
    processes, and restarts.  Results are memoized per (name, labels)
    because receivers map the same hot series on every scrape.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self._cache: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], MappedSeries] = {}

    def map(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> MappedSeries:
        """Resolve one external (name, labels) pair.

        Raises:
            ValueError: When the external name is empty (or mangles to
                nothing) — an unidentifiable series must be rejected at
                the edge, not admitted under a garbage name.
        """
        label_items: Tuple[Tuple[str, str], ...] = tuple(
            sorted((str(k), str(v)) for k, v in (labels or {}).items())
        )
        key = (name, label_items)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        mapped = self._map_uncached(name, label_items)
        # Bound the memo: receivers see a finite series space, but a
        # misbehaving client spraying unique names must not grow this
        # dict without limit.
        if len(self._cache) < 65536:
            self._cache[key] = mapped
        return mapped

    def _map_uncached(
        self, name: str, label_items: Tuple[Tuple[str, str], ...]
    ) -> MappedSeries:
        clean = _INVALID.sub("_", str(name).strip()).strip("_.")
        if not clean:
            raise ValueError(f"unmappable external series name: {name!r}")

        base = clean
        tags: Dict[str, str] = {}
        is_counter = False
        # Counter suffixes come off before unit suffixes so
        # ``*_seconds_total`` yields unit=seconds AND type=counter.
        for suffix in _COUNTER_SUFFIXES:
            if base.endswith(suffix) and len(base) > len(suffix):
                is_counter = True
                base = base[: -len(suffix)]
                break
        for suffix, unit in _UNIT_SUFFIXES:
            if base.endswith(suffix) and len(base) > len(suffix):
                tags.setdefault("unit", unit)
                base = base[: -len(suffix)]
                break

        for label, value in label_items:
            if label not in _RESERVED_LABELS:
                tags[str(label)] = str(value)
        if tags.get("type") == "counter":
            is_counter = True

        # The short metric tag is the last dotted component of the
        # stripped base name — what monitor series_filters match on
        # (``svc.render.gcpu`` -> ``gcpu``, ``http_requests_total``
        # -> ``http_requests``).
        tags.setdefault("metric", base.rsplit(".", 1)[-1])
        if is_counter:
            tags["type"] = "counter"
        tags.setdefault("source", self.source)

        internal = clean
        if label_items:
            # Labelled series fan out into internal series; the sorted
            # key=value suffix keeps the expansion deterministic, but it
            # is not collision-free: ``=`` and a space both fold to
            # ``_``, so {"host": "a b"}, {"host": "a_b"} and
            # {"host_a": "b"} all map to ``name.host_a_b``, and three
            # external series merge into one.
            label_part = ".".join(
                _INVALID.sub("_", f"{k}={v}")
                for k, v in label_items
                if k not in _RESERVED_LABELS
            )
            if label_part:
                internal = f"{internal}.{label_part}"
        return MappedSeries(name=internal, tags=tags)
