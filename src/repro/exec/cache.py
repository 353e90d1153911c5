"""One directory of the persistent on-disk result cache.

A :class:`ResultCache` is one shard of the engine's store,
:class:`~repro.exec.shards.ShardedResultCache`, and owns the entry
format.  Each entry is one JSON file holding the serialized run result
plus the obs manifest of the run that produced it (when obs was
attached), under a content key::

    <shard_dir>/<workload>-<config_fp[:10]>-x<scale>.json

Invalidation is by construction, not by mtime:

* the entry embeds the **full** job fingerprint (workload, scale, and
  the config's canonical sha256 digest) and is rejected on mismatch —
  a truncated-digest filename collision therefore cannot serve wrong
  results;
* the entry embeds :data:`SCHEMA`; entries written by an older layout
  are rejected (and overwritten on the next store);
* the entry embeds an **integrity digest** — sha256 over the canonical
  JSON of everything else in the entry — so corruption that still
  parses (a flipped bit inside a counter literal) is caught, not
  served as plausible-but-wrong numbers.

Corrupt entries are **quarantined**, never silently treated as misses:
the damaged file moves to ``<shard_dir>/quarantine/`` next to a
``<name>.reason.json`` sidecar recording what was wrong with it, a
one-line warning is logged, and the configured ``on_quarantine``
callback fires (the run engine counts these in
:class:`~repro.exec.engine.EngineStats.cache_quarantined`).  The job
then re-simulates fresh — a damaged cache degrades to fresh
simulation, never to a crash *and never invisibly*.

Stale-but-well-formed entries (an older :data:`SCHEMA`, a fingerprint
from a different config) are ordinary misses, not corruption: they are
left in place to be overwritten by the next store.

Stores are atomic (write-to-temp + ``os.replace``) so a killed run
cannot leave a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Callable

from repro.exec.jobs import Job

#: Cache entry schema (bump on any breaking change to the serialized
#: result layout — old entries then read as misses).  ``/2`` added the
#: integrity digest; ``/3`` marks the fast-backend era — entries may
#: now have been produced by either backend (bit-exact by contract,
#: but pre-fast-backend entries predate the contract's enforcement).
SCHEMA = "repro-exec/3"

#: Schema prefix identifying any well-formed entry of this cache,
#: current or stale — anything else claiming to be an entry is corrupt.
_SCHEMA_PREFIX = "repro-exec/"

QUARANTINE_DIR = "quarantine"

logger = logging.getLogger(__name__)


def integrity_digest(entry: dict) -> str:
    """sha256 over the canonical JSON of an entry, minus the digest
    field itself."""
    body = {k: v for k, v in entry.items() if k != "integrity"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CorruptEntry(Exception):
    """A cache file exists but cannot be trusted (internal signal)."""

    def __init__(self, reason: str, error: str | None = None) -> None:
        self.reason = reason
        self.error = error
        super().__init__(reason)


class ResultCache:
    """Directory of serialized run results, keyed by job content.

    ``on_quarantine(path, reason)`` — optional callback fired after a
    corrupt entry has been moved into the quarantine directory.
    """

    def __init__(self, directory: str | Path,
                 on_quarantine: Callable[[Path, str], None] | None = None,
                 ) -> None:
        self.directory = Path(directory)
        self.on_quarantine = on_quarantine

    def path(self, job: Job) -> Path:
        return self.directory / f"{job.stem()}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIR

    # ----------------------------------------------------------------- load

    def load(self, job: Job) -> dict | None:
        """The stored payload for ``job``, or None on any kind of miss.

        Misses split two ways: *stale* entries (absent, older schema,
        fingerprint mismatch) are plain misses; *corrupt* entries
        (unparseable, wrong shape, integrity mismatch) are quarantined
        first — see :meth:`quarantine`.
        """
        path = self.path(job)
        if not path.exists():
            return None
        entry = self.load_entry(path)
        if entry is None:
            return None
        if entry.get("fingerprint") != job.fingerprint():
            return None     # stale: a different config, not corruption
        return entry

    def load_entry(self, path: Path) -> dict | None:
        """Verified read of one entry file: schema and integrity are
        checked exactly as :meth:`load` does, corruption is quarantined
        the same way.  Returns None for stale or quarantined entries.
        The service's fingerprint-indexed lookups use this so a result
        served by fingerprint gets the same trust path as one served by
        job."""
        try:
            entry = self._read(path)
        except CorruptEntry as corrupt:
            self.quarantine(path, corrupt.reason, error=corrupt.error)
            return None
        return entry

    def _read(self, path: Path) -> dict | None:
        """Parse and verify one entry file.

        Returns the entry, or None for a *stale* (old-schema) entry;
        raises :class:`CorruptEntry` for anything untrustworthy.
        """
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise CorruptEntry("unreadable entry file", error=str(err))
        except UnicodeDecodeError as err:
            # A flipped bit can break UTF-8 itself, upstream of the
            # JSON parse — still corruption, still quarantined.
            raise CorruptEntry("entry is not valid UTF-8",
                               error=str(err))
        try:
            entry = json.loads(text)
        except ValueError as err:
            raise CorruptEntry("entry is not valid JSON", error=str(err))
        if not isinstance(entry, dict):
            raise CorruptEntry("entry is not a JSON object")
        schema = entry.get("schema")
        if not isinstance(schema, str) or not schema.startswith(
                _SCHEMA_PREFIX):
            raise CorruptEntry(f"unrecognized schema tag {schema!r}")
        if schema != SCHEMA:
            return None     # stale layout: plain miss, overwritten later
        if "result" not in entry:
            raise CorruptEntry("entry is missing its result payload")
        stored = entry.get("integrity")
        actual = integrity_digest(entry)
        if stored != actual:
            raise CorruptEntry(
                "integrity digest mismatch",
                error=f"stored {str(stored)[:16]}..., "
                      f"recomputed {actual[:16]}...")
        return entry

    # ----------------------------------------------------------- quarantine

    def quarantine(self, path: Path, reason: str,
                   error: str | None = None) -> Path:
        """Move a corrupt entry aside (with a structured reason file)
        instead of silently treating it as a miss."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = self.quarantine_dir / f"{path.name}.{suffix}"
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            # Two concurrent readers found the same corrupt entry; the
            # other one already moved it.  Its quarantine (and reason
            # file) stand — nothing left for this thread to do.
            return dest
        reason_record = {
            "entry": path.name,
            "quarantined_as": dest.name,
            "reason": reason,
            "error": error,
            "schema_expected": SCHEMA,
        }
        reason_path = dest.with_name(dest.name + ".reason.json")
        reason_path.write_text(
            json.dumps(reason_record, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        logger.warning("cache entry %s quarantined to %s: %s%s",
                       path, dest, reason,
                       f" ({error})" if error else "")
        if self.on_quarantine is not None:
            self.on_quarantine(dest, reason)
        return dest

    def quarantined(self) -> list[Path]:
        """Every quarantined entry file (reason sidecars excluded)."""
        if not self.quarantine_dir.is_dir():
            return []
        return [p for p in sorted(self.quarantine_dir.iterdir())
                if not p.name.endswith(".reason.json")]

    # ---------------------------------------------------------------- store

    def store(self, job: Job, result: dict,
              manifest: dict | None = None) -> Path:
        """Atomically persist one job's serialized result (+ manifest)."""
        entry = {
            "schema": SCHEMA,
            "workload": job.workload,
            "scale": job.scale,
            "fingerprint": job.fingerprint(),
            "result": result,
            "manifest": manifest,
        }
        entry["integrity"] = integrity_digest(entry)
        path = self.path(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
        return path

    def entries(self) -> list[Path]:
        """Every entry file currently in the cache directory
        (quarantined files live in a subdirectory and are excluded)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))
