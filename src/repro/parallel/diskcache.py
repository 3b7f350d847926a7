"""Process-safe on-disk kernel cache.

The in-process :class:`~repro.backend.compiled.KernelCache` keys
compiled kernels by structural fingerprint; this module extends
that one level further out: fingerprint → *marshalled codegen artefact*
(the generated source plus its compiled code object) persisted as one
file per kernel, so pool workers never regenerate or re-``compile()``
what the parent process already built.

Safety model: writers stage to a unique temp file in the cache
directory and ``os.replace`` it into place (atomic on POSIX), so a
reader can never observe a partial entry; concurrent writers of the
same fingerprint produce identical content, so last-writer-wins is
harmless.  Corrupted or cross-version entries (marshal is not stable
across interpreters) fail closed: the reader treats them as a miss and
the writer overwrites them.  Keys embed the interpreter version and the
codegen schema version (:func:`repro.backend.fingerprint.cache_key`),
so one directory can be shared by heterogeneous workers.
"""

from __future__ import annotations

import marshal
import os
import sys
import tempfile
from types import CodeType
from typing import Optional, Tuple

from .. import obs

#: File-format magic; bump together with incompatible layout changes.
_MAGIC = "repro-kernel-v1"

_DISK_LOOKUPS = obs.registry().counter(
    "repro_disk_cache_lookups_total",
    "On-disk kernel cache lookups")
_DISK_HITS = obs.registry().counter(
    "repro_disk_cache_hits_total",
    "On-disk kernel cache hits (valid entry loaded)")
_DISK_MISSES = obs.registry().counter(
    "repro_disk_cache_misses_total",
    "On-disk kernel cache misses (absent, corrupt, or wrong version)")
_DISK_PUTS = obs.registry().counter(
    "repro_disk_cache_puts_total",
    "Kernels persisted to the on-disk cache")
_DISK_CORRUPT = obs.registry().counter(
    "repro_disk_cache_corrupt_total",
    "Corrupt disk-cache entries quarantined (renamed to .kbc.bad)")
_DISK_EVICTIONS = obs.registry().counter(
    "repro_disk_cache_evictions_total",
    "Disk-cache entries evicted to enforce the size cap")

#: Environment override for the cache size cap, in megabytes.
CACHE_MAX_MB_ENV = "REPRO_DISK_CACHE_MAX_MB"


def _env_max_mb() -> Optional[float]:
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def default_cache_dir() -> str:
    """The shared default directory: ``$REPRO_KERNEL_CACHE`` when set,
    else a per-interpreter directory under the system temp dir."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    tag = f"py{sys.version_info[0]}{sys.version_info[1]}"
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{tag}")


class DiskKernelCache:
    """One cache directory of marshalled kernels.

    ``max_mb`` (default ``$REPRO_DISK_CACHE_MAX_MB``, unbounded when
    unset) caps the total ``.kbc`` payload: after every ``put`` the
    oldest-touched entries are evicted until the directory fits.
    Recency is entry mtime — refreshed on every hit — so eviction is
    LRU, and the entry just written is never the victim."""

    def __init__(self, path: Optional[str] = None,
                 max_mb: Optional[float] = None):
        self.path = path if path is not None else default_cache_dir()
        self.max_mb = max_mb if max_mb is not None else _env_max_mb()
        os.makedirs(self.path, exist_ok=True)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.kbc")

    def get(self, key: str) -> Optional[Tuple[str, CodeType]]:
        """(source, code object) for ``key``, or ``None`` on any miss —
        absent, unreadable, corrupted, or wrong format version.
        Corrupt entries are **quarantined** (renamed to ``.kbc.bad``)
        so a bad file is never re-parsed on every lookup and the next
        ``put`` writes a clean entry in its place; the originals are
        kept for post-mortems until :meth:`clear`."""
        _DISK_LOOKUPS.inc()
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                payload = marshal.load(handle)
        except OSError:
            _DISK_MISSES.inc()
            return None
        except (ValueError, EOFError, TypeError):
            # The file exists but marshal rejected it: corrupt or
            # cross-version bytes, not a racing writer (writes are
            # atomic os.replace).
            self._quarantine(path)
            _DISK_MISSES.inc()
            return None
        if (not isinstance(payload, tuple) or len(payload) != 3
                or payload[0] != _MAGIC
                or not isinstance(payload[1], str)
                or not isinstance(payload[2], CodeType)):
            self._quarantine(path)
            _DISK_MISSES.inc()
            return None
        _, source, code = payload
        _DISK_HITS.inc()
        try:
            os.utime(path)    # refresh LRU recency for the size cap
        except OSError:
            pass
        return source, code

    @staticmethod
    def _quarantine(path: str) -> None:
        """Move a corrupt entry aside (``name.kbc`` → ``name.kbc.bad``,
        last corruption wins) and count it."""
        _DISK_CORRUPT.inc()
        try:
            os.replace(path, path + ".bad")
        except OSError:
            pass

    def put(self, key: str, source: str, code: CodeType) -> None:
        """Persist one kernel atomically; IO failures are swallowed
        (the disk cache is an accelerator, never a correctness layer)."""
        payload = marshal.dumps((_MAGIC, source, code))
        _DISK_PUTS.inc()
        try:
            fd, staging = tempfile.mkstemp(dir=self.path,
                                           suffix=".kbc.tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(staging, self._entry_path(key))
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
                raise
        except OSError:
            pass
        self._enforce_cap()

    def _enforce_cap(self) -> None:
        """Evict oldest-touched entries until total ``.kbc`` bytes fit
        under ``max_mb``.  Best-effort and race-tolerant: entries that
        vanish mid-walk (a concurrent evictor or ``clear``) are
        skipped; at least one entry always survives so the kernel just
        written remains loadable."""
        if self.max_mb is None:
            return
        cap = int(self.max_mb * 1024 * 1024)
        entries = []
        try:
            with os.scandir(self.path) as it:
                for item in it:
                    if not item.name.endswith(".kbc"):
                        continue
                    try:
                        stat = item.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size,
                                    item.path))
        except OSError:
            return
        total = sum(size for _mtime, size, _path in entries)
        entries.sort()    # oldest mtime first
        while total > cap and len(entries) > 1:
            _mtime, size, path = entries.pop(0)
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            _DISK_EVICTIONS.inc()

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.path)
                       if name.endswith(".kbc"))
        except OSError:
            return 0

    def clear(self) -> None:
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            if (name.endswith(".kbc") or name.endswith(".kbc.tmp")
                    or name.endswith(".kbc.bad")):
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:
                    pass
