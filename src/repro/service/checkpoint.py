"""Durable checkpoint/restore for the streaming service.

Layout of a checkpoint directory (``KEEP_GENERATIONS = 3`` shown)::

    manifest.json          # pointer copy of the newest manifest
    manifest.g7.json       # newest generation's manifest
    manifest.g6.json       # previous generations, kept for fallback
    manifest.g5.json
    shard-0.g7.pkl         # per-generation shard blobs (TSDB + scheduler
    shard-0.g6.pkl         # + queue), named after their generation so
    ...                    # generations never overwrite each other

Manifests are JSON so operators can inspect a checkpoint without
unpickling anything; each shard blob carries a SHA-256 recorded in its
manifest so truncated or corrupted blobs are detected at load time.
The manager never serialises a shard: ``save`` is handed the bytes each
:class:`~repro.service.shard.Shard` pickled under its own lock, ``load``
unpickles what it verified.  A manifest of another
``CHECKPOINT_VERSION`` is refused, not converted.

Durability is layered:

- every file is written atomically (temp file + ``os.replace``) with an
  ``fsync`` of the file *and* of the directory, so a crash or power
  loss cannot leave a half-written blob under a final name;
- the generation's own manifest is written after all its blobs, and the
  ``manifest.json`` pointer is written last of all, so a crash
  mid-checkpoint leaves the previous generation fully loadable;
- :meth:`CheckpointManager.load` verifies every checksum and, when the
  newest generation fails (corrupt blob, truncated file, damaged
  manifest), falls back to the next-newest intact generation instead of
  refusing to start — the degradation is reported via
  :meth:`CheckpointManager.last_load`;
- old generations beyond :data:`KEEP_GENERATIONS` are pruned after a
  successful save, along with any blob no retained manifest references.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from typing import Dict, List, Optional, Tuple

__all__ = ["CheckpointError", "CheckpointManager", "CHECKPOINT_VERSION"]

#: 2: queues and reorder buffers hold per-series frames, not ``Sample`` rows.
#: 3: new ``meta`` keys; a pickled pipeline carries no registry or tracer.
#: 4: ingest workers keep their flush histogram and admission its
#: quarantines by reason; ``meta["metrics"]`` holds no count they own.
#: 5: a scheduler counts its scans and the blob has no ``scans`` key;
#: ``meta["metrics"]`` holds no scan or incremental-cache count.
#: 6: no ``meta["replicas"]``; a series has no duplicate policy and an
#: admission controller no config.
#: 7: a monitor holds its pipeline (no ``FBDetect`` wrapper), and the
#: pipeline's detectors carry no settings (they are module constants).
#: 8: a regression's window holds its samples' timestamps and one value
#: array (``WindowedView.times`` / ``values``), not three value arrays.
#: 9: a pipeline holds no shadow scorer and a monitor spec no shadow ids.
#: 10: a pairwise-dedup group holds at most ``MAX_MEMBERS_COMPARED``
#: member records (context and samples), not whole regressions.
#: 11: a TSDB column that is an exact arithmetic progression pickles as
#: ``(first, step, n)``, not as its values.
#: 12: a monitor pickles as its configuration, scan context and
#: ``MonitorState``; no pipeline or detector object is in a blob.
CHECKPOINT_VERSION = 12
MANIFEST_NAME = "manifest.json"
#: Complete generations a save retains.  More than one is what makes
#: corruption survivable: when the newest generation fails its
#: checksums, :meth:`CheckpointManager.load` falls back to the next
#: intact one.
KEEP_GENERATIONS = 3

_GEN_MANIFEST_RE = re.compile(r"^manifest\.g(\d+)\.json$")
_GEN_BLOB_RE = re.compile(r"^shard-.+\.g\d+\.pkl$")


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or from an unknown version."""


class CheckpointManager:
    """Saves and loads generational checkpoints in one directory.

    Args:
        directory: Checkpoint directory (created on first save).

    Example::

        manager = CheckpointManager("/var/lib/repro/ckpt")
        manager.save({"clock": 5400.0}, {0: shard0_blob, 1: shard1_blob})
        meta, shard_states = manager.load()  # blobs verified and unpickled
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        # Filled by load(): which generation satisfied it and how many
        # newer generations had to be skipped as corrupt.
        self._last_load: Optional[Dict[str, object]] = None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def exists(self) -> bool:
        """Whether a generation's manifest is present."""
        return bool(self._generations())

    def last_load(self) -> Optional[Dict[str, object]]:
        """Info about the most recent :meth:`load` on this manager.

        Returns ``None`` before any load, else a dict with ``generation``
        (the one that satisfied the load), ``fallbacks`` (how many newer
        generations were skipped as corrupt), and ``skipped`` (their
        error strings, newest first).
        """
        return self._last_load

    def save(self, meta: dict, shards: Dict[object, bytes]) -> str:
        """Write one new checkpoint generation; returns the manifest path.

        Args:
            meta: JSON-serializable service-level state (clock, ledger,
                metrics snapshot ...).
            shards: Each shard's pickled state, keyed by shard id
                (:meth:`~repro.service.shard.Shard.checkpoint_blob`),
                hashed and written as it is.
        """
        os.makedirs(self.directory, exist_ok=True)
        generation = (self._generations() or [0])[-1] + 1
        shard_index = {}
        for shard_id, blob in shards.items():
            filename = f"shard-{shard_id}.g{generation}.pkl"
            self._atomic_write(filename, blob)
            shard_index[str(shard_id)] = {
                "file": filename,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "bytes": len(blob),
            }
        manifest = {
            "version": CHECKPOINT_VERSION,
            "generation": generation,
            "meta": meta,
            "shards": shard_index,
        }
        encoded = json.dumps(manifest, indent=2, sort_keys=True).encode()
        self._atomic_write(f"manifest.g{generation}.json", encoded)
        # The pointer is written last: until it lands, loaders see the
        # previous generation.  load() falls back to per-generation
        # manifests when the pointer is damaged.
        self._atomic_write(MANIFEST_NAME, encoded)
        self._prune(keep_from=generation)
        return self.manifest_path

    def load(self) -> Tuple[dict, Dict[str, object]]:
        """Load the newest intact generation; ``(meta, {shard_id: state})``.

        Shard ids come back as strings (JSON keys); callers that used
        int ids convert back.

        Generations are tried newest-first; one that fails (unreadable
        manifest, checksum mismatch, missing blob) is skipped and the
        next is tried.  :meth:`last_load` reports which generation won
        and what was skipped.

        Raises:
            CheckpointError: When no manifest exists at all, the newest
                manifest has an unsupported version, or every generation
                is corrupt.
        """
        generations = self._generations()
        if not generations:
            raise CheckpointError(f"no checkpoint manifest in {self.directory}")
        skipped: List[str] = []
        for generation in reversed(generations):
            path = os.path.join(self.directory, f"manifest.g{generation}.json")
            try:
                meta, shards = self._load_manifest(path)
            except CheckpointError as error:
                if len(generations) == 1:
                    raise
                skipped.append(str(error))
                continue
            self._last_load = {
                "generation": generation,
                "fallbacks": len(skipped),
                "skipped": skipped,
            }
            return meta, shards
        raise CheckpointError(
            f"every checkpoint generation in {self.directory} is corrupt: "
            + "; ".join(skipped)
        )

    # -- internals -------------------------------------------------------

    def _load_manifest(self, path: str) -> Tuple[dict, Dict[str, object]]:
        manifest = self._read_manifest(path)
        version = manifest.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version!r} != supported {CHECKPOINT_VERSION}"
            )
        shards: Dict[str, object] = {}
        for shard_id, entry in manifest.get("shards", {}).items():
            blob_path = os.path.join(self.directory, entry["file"])
            try:
                with open(blob_path, "rb") as source:
                    blob = source.read()
            except OSError as error:
                raise CheckpointError(
                    f"cannot read shard blob {blob_path}: {error}"
                ) from error
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry["sha256"]:
                raise CheckpointError(
                    f"shard {shard_id} checksum mismatch "
                    f"(expected {entry['sha256'][:12]}…, got {digest[:12]}…)"
                )
            shards[shard_id] = pickle.loads(blob)
        return manifest.get("meta", {}), shards

    def _read_manifest(self, path: str) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as source:
                return json.load(source)
        except FileNotFoundError as error:
            raise CheckpointError(f"no checkpoint manifest at {path}") from error
        except (OSError, ValueError) as error:  # bad JSON, or not UTF-8 at all
            raise CheckpointError(f"unreadable manifest: {error}") from error

    def _generations(self) -> List[int]:
        """Sorted generation numbers with an on-disk manifest."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        found = []
        for name in names:
            match = _GEN_MANIFEST_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _prune(self, keep_from: int) -> None:
        """Drop generations older than the retained window, and orphans.

        A blob is an orphan when no retained *readable* manifest
        references it — which also sweeps blobs from a shard-count
        shrink.
        """
        retained = [
            gen
            for gen in self._generations()
            if gen > keep_from - KEEP_GENERATIONS
        ]
        referenced = {MANIFEST_NAME}
        for gen in retained:
            referenced.add(f"manifest.g{gen}.json")
            try:
                manifest = self._read_manifest(
                    os.path.join(self.directory, f"manifest.g{gen}.json")
                )
            except CheckpointError:
                continue  # keep the manifest itself; its blobs may be orphaned
            for entry in manifest.get("shards", {}).values():
                referenced.add(entry["file"])
        for name in os.listdir(self.directory):
            if name in referenced or name.endswith(".tmp"):
                continue
            if _GEN_MANIFEST_RE.match(name) or _GEN_BLOB_RE.match(name):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        self._fsync_directory()

    def _atomic_write(self, filename: str, payload: bytes) -> None:
        path = os.path.join(self.directory, filename)
        temp = path + ".tmp"
        with open(temp, "wb") as sink:
            sink.write(payload)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(temp, path)
        # fsync the directory too: os.replace updates the directory
        # entry, and without this a power loss can forget the rename
        # even though the file's bytes are durable.
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without dir-fsync
            pass
        finally:
            os.close(fd)
