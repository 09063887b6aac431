"""Versioned disk-persistent cache for analysis reports.

The in-memory :class:`~repro.core.cache.AnalysisCache` dies with its
process; a restarted serving process used to re-analyze every program of
its steady-state traffic from scratch.  This module adds the missing
durable tier: a content-addressed directory of pickled entries, keyed by
the canonical structural hash (plus the placement), that any number
of processes on one host can share.  ``SessionConfig.disk_cache`` (the
CLI's ``--disk-cache``) attaches it to a session's analysis cache.

Safety is the whole design:

* **versioned** — every entry records a ``spec_version`` string combining
  the on-disk format version with
  :attr:`repro.plan.ExecutionPlan.SPEC_VERSION`.  An entry written by an
  incompatible build is treated as a *miss* and deleted, never
  misinterpreted.
* **atomic publish** — entries are written to a temporary file in the cache
  directory and ``os.replace``\\ d into place, so concurrent readers (and
  crashed writers) only ever observe complete entries.
* **best effort** — a corrupt, truncated or unreadable entry degrades to a
  miss; I/O errors never propagate into the serving path.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as root:
    ...     cache = DiskCache(root)
    ...     cache.get("k") is None
    ...     cache.put("k", {"answer": 42})
    ...     cache.get("k")
    True
    {'answer': 42}
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.plan import ExecutionPlan

__all__ = ["DISK_FORMAT_VERSION", "DiskCache", "DiskCacheStats", "default_spec_version"]

#: Version of the on-disk entry layout itself (the envelope around the
#: pickled value).  Bump together with any change to ``_encode``/``_decode``.
DISK_FORMAT_VERSION = 1


def default_spec_version() -> str:
    """The compatibility stamp entries are written (and validated) under.

    Combines the disk envelope version with the plan spec version: a bump
    of either invalidates every existing entry, because the envelope and
    the values pickled inside it must deserialize exactly.
    """
    return f"disk{DISK_FORMAT_VERSION}.plan{ExecutionPlan.SPEC_VERSION}"


@dataclass
class DiskCacheStats:
    """Hit/miss/write counters of one :class:`DiskCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    rejected: int = 0

    def describe(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.writes} write(s), {self.rejected} stale/corrupt entrie(s)"
        )


class DiskCache:
    """A directory of versioned, atomically published pickle entries.

    Entries live in ``<directory>/analysis/``.  ``spec_version`` defaults
    to :func:`default_spec_version` and is recorded in — and required of —
    every entry.  Keys are arbitrary strings (canonical hashes plus the
    placement); the file name is the SHA-256 of the key, so keys never have to
    be file-system safe.

        >>> import os, tempfile
        >>> with tempfile.TemporaryDirectory() as root:
        ...     cache = DiskCache(root)
        ...     cache.put("abc:outer", [1, 2, 3])
        ...     cache.get("abc:outer"), os.listdir(root)
        ([1, 2, 3], ['analysis'])
    """

    def __init__(self, directory: str, spec_version: Optional[str] = None):
        self.directory = os.path.join(os.path.expanduser(str(directory)), "analysis")
        self.spec_version = spec_version or default_spec_version()
        self.stats = DiskCacheStats()

    # ------------------------------------------------------------------ #
    def _path_for(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest}.pkl")

    def get(self, key: str) -> Optional[object]:
        """The stored value, or ``None`` on miss/stale/corrupt entry."""
        path = self._path_for(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncated write or unpicklable content: drop the entry and
            # miss.
            self._discard(path)
            self.stats.rejected += 1
            self.stats.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("spec_version") != self.spec_version
            or envelope.get("key") != key
        ):
            # Version skew or a (vanishingly unlikely) SHA collision:
            # reject rather than reinterpret.
            self._discard(path)
            self.stats.rejected += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return envelope.get("value")

    def put(self, key: str, value: object) -> None:
        """Persist ``value`` under ``key`` (atomic, best effort)."""
        path = self._path_for(key)
        envelope = {
            "spec_version": self.spec_version,
            "key": key,
            "value": value,
        }
        try:
            payload = pickle.dumps(envelope)
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_path, path)
            except BaseException:
                self._discard(tmp_path)
                raise
        except Exception:
            # Disk full, unpicklable value, permissions: the cache is an
            # accelerator, never a correctness dependency.
            return
        self.stats.writes += 1

    # ------------------------------------------------------------------ #
    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.directory) if name.endswith(".pkl")
            )
        except OSError:
            return 0

    def clear(self) -> None:
        """Drop every entry."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith(".pkl") or name.endswith(".tmp"):
                self._discard(os.path.join(self.directory, name))

    def describe(self) -> str:
        return (
            f"disk cache [{self.spec_version}]: "
            f"{len(self)} entrie(s), " + self.stats.describe()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskCache(directory={self.directory!r})"
