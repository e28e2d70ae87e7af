"""File-based telemetry importers: CSV and JSON-lines.

The batch edge of :mod:`repro.connectors`: adapt externally exported
series files into :class:`~repro.service.ingest.Sample` streams,
buffer them into one frame per series, and offer those to a running
:class:`~repro.service.service.StreamingDetectionService` — *through*
its normal ingest path, so imported points get the same routing,
backpressure, and data-quality admission (NaN quarantine, counter
rebasing, reordering) native ones do.  Nothing here writes to a TSDB
directly.

Two formats, mirroring what real exporters produce:

- **CSV** (:class:`CsvImporter`).  Either the long form
  ``name,timestamp,value[,extra...]`` (one row per point of many
  series; extra header columns become per-point tags) or the narrow
  ``timestamp,value`` form (one unnamed series, named
  :data:`SERIES_NAME`).  This is the shape ``repro-fbdetect
  simulate --out`` writes and the shape most ad-hoc exports take.
- **JSON lines** (:class:`JsonLinesImporter`).  One object per line:
  ``{"name": ..., "timestamp": ..., "value": ..., "tags": {...}}``
  (``labels`` is accepted as an alias for ``tags``).

Malformed rows never abort an import — real exports have ragged tails
and clock-skewed garbage — they are counted (:attr:`ImportStats.bad_rows`)
and skipped, and the first few are logged.  Values that parse but are
*dirty* (NaN, negative gauges, duplicates, stragglers) are deliberately
passed through: judging them is the admission layer's job, and its
quarantine attribution is the operator's audit trail.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, Iterator, Optional, Union

from repro.connectors.mapping import SeriesMapper
from repro.obs.logging import get_logger
from repro.service.ingest import Sample, frames_of

__all__ = ["ImportStats", "CsvImporter", "JsonLinesImporter"]

_log = get_logger("repro.connectors")

#: Log at most this many malformed-row diagnostics per import.
_MAX_LOGGED_BAD_ROWS = 5
#: The name of a series whose rows carry none.
SERIES_NAME = "imported.series"


@dataclass
class ImportStats:
    """Outcome of one import run.

    Attributes:
        offered: Samples offered to the service.
        accepted: Samples the service accepted (admission may have
            repaired or held some; backpressure may have refused some).
        bad_rows: Source rows that failed to parse and were skipped.
        series: Distinct internal series names seen.
        first_timestamp / last_timestamp: Observed time range
            (``None`` when nothing parsed).
    """

    offered: int = 0
    accepted: int = 0
    bad_rows: int = 0
    series: int = 0
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None
    _names: set = field(default_factory=set, repr=False)

    def offer(self, service, samples: Iterable[Sample]) -> None:
        """Hand ``samples`` to ``service`` (anything with
        ``ingest_frames``) as one frame per series in one call, and
        tally them."""
        frames = frames_of(samples)
        self.accepted += service.ingest_frames(frames)
        for frame in frames:
            self.offered += len(frame)
            self._names.add(frame.name)
            first, last = float(frame.timestamps.min()), float(frame.timestamps.max())
            if self.first_timestamp is None or first < self.first_timestamp:
                self.first_timestamp = first
            if self.last_timestamp is None or last > self.last_timestamp:
                self.last_timestamp = last
        self.series = len(self._names)


class _FileImporter:
    """Shared machinery: source handling, mapping, the ingest loop."""

    #: ``tags["source"]`` value and mapper source.
    source_name = "file"

    def __init__(self) -> None:
        self.mapper = SeriesMapper(source=self.source_name)

    # -- parsing (format-specific) --------------------------------------

    def iter_samples(
        self, source: Union[str, IO[str]], stats: Optional[ImportStats] = None
    ) -> Iterator[Sample]:
        """Yield mapped samples from a path or open text stream.

        Malformed rows are skipped (counted on ``stats`` when given).
        """
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8", newline="") as handle:
                yield from self._iter_stream(handle, stats)
        else:
            yield from self._iter_stream(source, stats)

    def _iter_stream(
        self, stream: IO[str], stats: Optional[ImportStats]
    ) -> Iterator[Sample]:
        raise NotImplementedError

    def _bad_row(
        self, stats: Optional[ImportStats], row: object, error: Exception
    ) -> None:
        if stats is not None:
            stats.bad_rows += 1
            if stats.bad_rows <= _MAX_LOGGED_BAD_ROWS:
                _log.warning(
                    "skipping malformed row",
                    source=self.source_name,
                    row=str(row)[:200],
                    error=str(error),
                )

    # -- the ingest loop -------------------------------------------------

    def import_into(
        self, service, source: Union[str, IO[str]]
    ) -> ImportStats:
        """Offer every parsed sample to ``service`` (or any object with
        ``ingest_frames``); returns the run's :class:`ImportStats`."""
        stats = ImportStats()
        stats.offer(service, self.iter_samples(source, stats))
        _log.info(
            "import finished",
            source=self.source_name,
            offered=stats.offered,
            accepted=stats.accepted,
            series=stats.series,
            bad_rows=stats.bad_rows,
        )
        return stats


class CsvImporter(_FileImporter):
    """CSV telemetry importer (long and narrow forms; see module doc)."""

    source_name = "csv"

    def _iter_stream(
        self, stream: IO[str], stats: Optional[ImportStats]
    ) -> Iterator[Sample]:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            return
        header = [column.strip().lower() for column in header]
        if "timestamp" not in header or "value" not in header:
            # Headerless narrow file: the first row is data.
            header_row = header
            header = ["timestamp", "value"]
            yield from self._rows(iter([header_row]), header, stats)
        yield from self._rows(reader, header, stats)

    def _rows(self, rows, header, stats) -> Iterator[Sample]:
        ts_col = header.index("timestamp")
        value_col = header.index("value")
        name_col = header.index("name") if "name" in header else None
        tag_cols = [
            (index, column)
            for index, column in enumerate(header)
            if index not in (ts_col, value_col, name_col) and column
        ]
        for row in rows:
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                timestamp = float(row[ts_col])
                value = float(row[value_col])
                raw_name = (
                    row[name_col].strip() if name_col is not None else SERIES_NAME
                )
                labels: Dict[str, str] = {
                    column: row[index].strip()
                    for index, column in tag_cols
                    if index < len(row) and row[index].strip()
                }
                mapped = self.mapper.map(raw_name, labels)
            except (ValueError, IndexError) as error:
                self._bad_row(stats, row, error)
                continue
            yield Sample(mapped.name, timestamp, value, mapped.tags)


class JsonLinesImporter(_FileImporter):
    """JSON-lines telemetry importer (one point object per line)."""

    source_name = "jsonl"

    def _iter_stream(
        self, stream: IO[str], stats: Optional[ImportStats]
    ) -> Iterator[Sample]:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                labels = record.get("tags") or record.get("labels") or {}
                mapped = self.mapper.map(
                    record.get("name", SERIES_NAME), labels
                )
                timestamp = float(record["timestamp"])
                value = float(record["value"])
            except (ValueError, KeyError, TypeError) as error:
                self._bad_row(stats, line, error)
                continue
            yield Sample(mapped.name, timestamp, value, mapped.tags)
