"""Sharded content-addressed result store (the one on-disk cache).

A :class:`ShardedResultCache` fans
:class:`~repro.exec.cache.ResultCache` entries out across 256 shard
directories, keyed by a prefix of the sha256 of the job's content
fingerprint::

    <root>/cas.json                 # layout marker (schema, shard width)
    <root>/<2-hex>/<stem>.json      # one ResultCache per shard
    <root>/<2-hex>/quarantine/...   # per-shard quarantine + sidecars

Each shard *is* a :class:`~repro.exec.cache.ResultCache`, so every
per-entry guarantee is the shard's: the embedded full fingerprint, the
integrity digest, atomic stores, and the quarantine-with-reason path.
The point of sharding is concurrent multi-tenant traffic: the
service's writers land in 256 independent directories instead of one,
and a wedged or quarantined shard never blocks its neighbors.

The layout marker makes the directory self-describing: a root whose
marker names another CAS schema or shard width raises
:class:`CasLayoutError` instead of silently splitting the store in
two.  A root without a marker is adopted (the marker is written on the
first store); entry files at the root itself, as an older single-
directory cache left them, are never read — plain misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Callable

from repro.exec.cache import SCHEMA, ResultCache
from repro.exec.jobs import Job

#: CAS directory-layout schema (independent of the entry schema,
#: :data:`~repro.exec.cache.SCHEMA`).
CAS_SCHEMA = "repro-cas/1"

#: Name of the layout marker file at the CAS root.
MARKER = "cas.json"

#: Shard-prefix width in hex characters (2 -> 256 shards).
WIDTH = 2


class CasLayoutError(RuntimeError):
    """An existing CAS root's marker disagrees with this build's layout."""


def shard_key(fingerprint: str) -> str:
    """Shard directory name for a job fingerprint: the first
    :data:`WIDTH` hex chars of its sha256 (the fingerprint embeds the
    workload name, so the raw prefix would skew — hashing makes the
    fan-out uniform).
    """
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    return digest[:WIDTH]


class ShardedResultCache:
    """The run engine's result store: entries fanned out by
    fingerprint-prefix shard.

    Same ``load`` / ``store`` / ``path`` / ``entries`` / ``quarantined``
    surface as one :class:`~repro.exec.cache.ResultCache`, same
    ``on_quarantine(path, reason)`` callback (fired by whichever shard
    quarantined the entry).
    """

    def __init__(self, directory: str | Path,
                 on_quarantine: Callable[[Path, str], None] | None = None,
                 ) -> None:
        self.directory = Path(directory)
        self.on_quarantine = on_quarantine
        self._shards: dict[str, ResultCache] = {}
        #: guards the shard memo: the service's worker threads and its
        #: admission path open shards concurrently.
        self._lock = threading.Lock()
        self._verify_or_adopt_marker()

    # ---------------------------------------------------------- layout

    def _verify_or_adopt_marker(self) -> None:
        marker = self.directory / MARKER
        if not marker.exists():
            return                      # written lazily on first store
        try:
            data = json.loads(marker.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            raise CasLayoutError(f"unreadable CAS marker {marker}: {err}")
        if not isinstance(data, dict):
            raise CasLayoutError(f"CAS marker {marker} is not a JSON object")
        if data.get("schema") != CAS_SCHEMA:
            raise CasLayoutError(
                f"{self.directory} carries CAS schema "
                f"{data.get('schema')!r}, this build speaks {CAS_SCHEMA!r}")
        if data.get("shard_width") != WIDTH:
            raise CasLayoutError(
                f"{self.directory} was laid out with shard width "
                f"{data.get('shard_width')}, this build uses {WIDTH}")

    def _write_marker(self) -> None:
        """Atomic (write-to-temp + ``os.replace``): a concurrent
        constructor sees either no marker or the whole marker, never
        a half-written one."""
        marker = self.directory / MARKER
        if marker.exists():
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = marker.with_name(
            f"{MARKER}.tmp{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(json.dumps({
            "schema": CAS_SCHEMA,
            "shard_width": WIDTH,
            "entry_schema": SCHEMA,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, marker)

    def shard_of(self, job: Job) -> str:
        return shard_key(job.fingerprint())

    def shard(self, prefix: str) -> ResultCache:
        """The (memoized) cache backing one shard directory
        (thread-safe: concurrent readers share one instance)."""
        with self._lock:
            cache = self._shards.get(prefix)
            if cache is None:
                cache = ResultCache(self.directory / prefix,
                                    on_quarantine=self.on_quarantine)
                self._shards[prefix] = cache
            return cache

    def shards(self) -> list[Path]:
        """Every shard directory currently on disk."""
        if not self.directory.is_dir():
            return []
        return [p for p in sorted(self.directory.iterdir())
                if p.is_dir() and len(p.name) == WIDTH
                and all(c in "0123456789abcdef" for c in p.name)]

    # ----------------------------------------------- ResultCache surface

    def path(self, job: Job) -> Path:
        return self.shard(self.shard_of(job)).path(job)

    def load(self, job: Job) -> dict | None:
        return self.shard(self.shard_of(job)).load(job)

    def store(self, job: Job, result: dict,
              manifest: dict | None = None) -> Path:
        self._write_marker()
        return self.shard(self.shard_of(job)).store(job, result,
                                                    manifest=manifest)

    def load_by_fingerprint(self, fingerprint: str) -> dict | None:
        """Look an entry up by full job fingerprint alone (the service's
        GET-result path, where no :class:`Job` object exists).  Scans
        only the one shard the fingerprint hashes to; every candidate
        goes through the shard's verified read, so corruption found on
        this path quarantines exactly as on the job path."""
        shard = self.shard(shard_key(fingerprint))
        for path in shard.entries():
            entry = shard.load_entry(path)
            if entry is not None and entry.get("fingerprint") == fingerprint:
                return entry
        return None

    def entries(self) -> list[Path]:
        return [entry for shard_dir in self.shards()
                for entry in self.shard(shard_dir.name).entries()]

    def quarantined(self) -> list[Path]:
        return [entry for shard_dir in self.shards()
                for entry in self.shard(shard_dir.name).quarantined()]
