"""On-disk result cache for sweep runs.

Every sweep execution is deterministic in its :class:`RunSpec`, so a
result computed once can be replayed from disk forever. Entries live
under a cache directory (``.chimera-cache/`` by default) keyed by the
spec's content hash combined with the repro package version — a version
bump invalidates every entry, and any change to a scenario parameter,
seed, or :class:`~repro.gpu.config.GPUConfig` field changes the spec
hash and misses.

Environment knobs:

* ``CHIMERA_CACHE_DIR`` — cache directory (default ``.chimera-cache``)
* ``CHIMERA_NO_CACHE``  — any non-empty value disables the disk cache

Entries are pickles written atomically (temp file + rename); a
corrupted or unreadable entry is deleted and treated as a miss, never
raised to the caller — but each discard is logged exactly once (the
file is gone afterwards) on the ``repro.harness.cache`` logger with the
entry key and the reason, so silent data loss is visible. Call
:func:`repro.setup_logging` to surface these warnings on stderr.

Entries are sharded into two-hex-prefix subdirectories
(``<dir>/<key[:2]>/<key>.pkl``): a 100k-spec sweep would otherwise put
100k files in one directory, which large filesystems handle poorly and
directory listings handle worse.

A cache on a read-only mount (CI images, shared NFS baselines) degrades
instead of failing: entries are still served, and ``put()`` becomes a
no-op, logged exactly once per process.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.harness import faults

logger = logging.getLogger("repro.harness.cache")

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".chimera-cache"


def _is_readonly_error(exc: OSError) -> bool:
    """Does this OSError mean 'the cache directory is not writable'?"""
    return (isinstance(exc, PermissionError)
            or exc.errno in (errno.EROFS, errno.EACCES, errno.EPERM))


@dataclass
class CacheEntry:
    """One cached run: the result plus how long it took to compute."""

    key: str
    result: Any
    duration_s: float


class ResultCache:
    """A content-addressed pickle store for sweep results."""

    def __init__(self, directory: Optional[os.PathLike] = None,
                 enabled: bool = True):
        self.directory = Path(directory) if directory is not None \
            else Path(DEFAULT_CACHE_DIR)
        self.enabled = enabled
        #: Set once the directory proves unwritable; gates the one-time
        #: warning and stops repeat write attempts.
        self._readonly = False

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Build a cache honoring ``CHIMERA_CACHE_DIR``/``CHIMERA_NO_CACHE``."""
        directory = os.environ.get("CHIMERA_CACHE_DIR") or DEFAULT_CACHE_DIR
        enabled = not os.environ.get("CHIMERA_NO_CACHE")
        return cls(directory, enabled=enabled)

    @staticmethod
    def digest(payload: str) -> str:
        """Canonical content hash used for entry filenames."""
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        """Filesystem path of the entry for ``key`` (sharded layout)."""
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[CacheEntry]:
        """Load an entry, or None on a miss.

        A corrupted entry (truncated pickle, stale class layout, wrong
        key) is deleted, logged once with the reason, and reported as a
        miss.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception as exc:
            logger.warning(
                "discarding unreadable cache entry %s (%s: %s)",
                key, type(exc).__name__, exc)
            self._discard(path)
            return None
        if not isinstance(entry, CacheEntry) or entry.key != key:
            logger.warning(
                "discarding cache entry %s: foreign payload or key mismatch "
                "(stored key %s)", key,
                getattr(entry, "key", "<missing>"))
            self._discard(path)
            return None
        return entry

    def _note_readonly(self, action: str, exc: OSError) -> None:
        """Record (and log, once per process) a read-only cache dir."""
        if not self._readonly:
            logger.warning(
                "cache directory %s is not writable (%s while trying to "
                "%s); serving existing entries, skipping writes",
                self.directory, exc, action)
        self._readonly = True

    def put(self, key: str, result: Any, duration_s: float) -> None:
        """Store a result atomically (temp file + rename).

        On a read-only cache directory this degrades to a no-op (logged
        once per process) instead of failing the run that computed the
        result.
        """
        if not self.enabled or self._readonly:
            return
        path = self.path_for(key)
        entry = CacheEntry(key=key, result=result, duration_s=duration_s)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError as exc:
            if _is_readonly_error(exc):
                self._note_readonly(f"store entry {key}", exc)
                return
            raise
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError as exc:
                logger.warning("could not remove temp cache file %s: %s",
                               tmp_name, exc)
            raise
        if faults.should_corrupt_put(key):
            self.path_for(key).write_bytes(faults.CORRUPT_PAYLOAD)
            logger.warning("fault injection: corrupted cache entry %s", key)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        if not self.directory.is_dir():
            return 0
        removed = 0
        for path in self.directory.glob("*/*.pkl"):
            self._discard(path)
            removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            logger.warning("could not delete cache entry %s: %s", path, exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"<ResultCache {self.directory} ({state})>"
