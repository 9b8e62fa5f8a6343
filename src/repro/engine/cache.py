"""On-disk JSON result cache for evaluated sweep points.

One file per key under the cache directory (default ``.repro_cache/``),
written atomically (temp file + ``os.replace``) so concurrent workers and
interrupted runs never leave a torn entry.  Values are plain JSON dicts;
floats round-trip bitwise through ``json`` (repr-based serialization), so
a cache hit reproduces the computed result exactly.

Corrupted, truncated or schema-mismatched entries can still appear — a
crashed writer on another filesystem, a partial copy, an old cache
layout, a stray editor.  Every such entry is treated as a **miss**: the
damage is logged, the entry is deleted so the recomputed value overwrites
it, and the caller recomputes.  A bad cache can cost time, never
correctness.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..obs import Metrics
from ..runtime import faultpoints

__all__ = ["DiskCache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".repro_cache"

logger = logging.getLogger("repro.engine.cache")


class DiskCache:
    """A tiny key-value store of JSON dicts with hit/miss counters.

    Args:
        directory: cache root; created lazily on the first write.
        validator: optional payload schema check.  A stored entry for
            which ``validator(payload)`` is falsy is handled like any
            other corruption: miss, log, delete.
        metrics: the :class:`~repro.obs.Metrics` registry the counters
            live in (a private one per cache when omitted, so two caches
            never share tallies).

    Attributes:
        hits / misses: lookup counters — read-through views of the
            ``engine.disk_cache.*`` counters in :attr:`metrics`.
        rejected: how many stored entries were discarded as corrupt,
            truncated or schema-mismatched (a subset of ``misses``).
    """

    def __init__(
        self,
        directory: Union[str, Path] = DEFAULT_CACHE_DIR,
        validator: Optional[Callable[[Dict[str, Any]], bool]] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self._dir = Path(directory)
        self._validator = validator
        self.metrics = metrics if metrics is not None else Metrics()
        self._hits = self.metrics.counter("engine.disk_cache.hits")
        self._misses = self.metrics.counter("engine.disk_cache.misses")
        self._rejected = self.metrics.counter("engine.disk_cache.rejected")

    # Counter attributes kept as read-through properties so provenance
    # snapshots and existing callers see exactly the pre-obs integers.

    @property
    def hits(self) -> int:
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.value = value

    @property
    def misses(self) -> int:
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.value = value

    @property
    def rejected(self) -> int:
        return self._rejected.value

    @rejected.setter
    def rejected(self, value: int) -> None:
        self._rejected.value = value

    @property
    def directory(self) -> Path:
        return self._dir

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be hex digests, got {key!r}")
        return self._dir / f"{key}.json"

    def _reject(
        self, path: Path, reason: str, stamp: Optional[os.stat_result] = None
    ) -> None:
        """Discard a damaged entry: log it and delete the file so the next
        :meth:`put` overwrites it with a freshly computed value.

        ``stamp`` is the ``fstat`` of the file descriptor the damaged
        bytes were read from.  Writers are atomic (temp file +
        ``os.replace``), so a concurrent :meth:`put` may have already
        replaced the path with a fresh, valid entry by the time the
        reader decides to reject — deleting blindly would destroy good
        data.  The unlink only fires while the path still resolves to the
        same inode that was read.
        """
        self.rejected += 1
        logger.warning("discarding cache entry %s: %s", path, reason)
        try:
            if stamp is not None:
                current = os.stat(path)
                if (current.st_ino, current.st_dev) != (
                    stamp.st_ino,
                    stamp.st_dev,
                ):
                    return  # a concurrent writer already replaced it
            path.unlink()
        except OSError:
            pass  # already gone or unremovable; put() will overwrite anyway

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None (counted as hit/miss).

        Never raises on a damaged entry — corruption degrades to a miss.
        """
        path = self._path(key)
        faultpoints.fire(faultpoints.CACHE_READ, path)
        stamp: Optional[os.stat_result] = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                stamp = os.fstat(fh.fileno())
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self.misses += 1
            logger.warning("unreadable cache entry %s: %s", path, exc)
            return None
        except ValueError as exc:  # json.JSONDecodeError, bad unicode, ...
            self.misses += 1
            self._reject(path, f"invalid JSON ({exc})", stamp)
            return None
        if not isinstance(payload, dict):
            self.misses += 1
            self._reject(
                path, f"payload is {type(payload).__name__}, not a dict", stamp
            )
            return None
        if self._validator is not None and not self._validator(payload):
            self.misses += 1
            self._reject(path, "schema mismatch", stamp)
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key``."""
        path = self._path(key)
        self._dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self._dir), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self._dir.is_dir():
            for entry in self._dir.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self._dir.is_dir():
            return 0
        return sum(1 for _ in self._dir.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskCache({str(self._dir)!r}, hits={self.hits}, "
            f"misses={self.misses}, rejected={self.rejected})"
        )
