"""Zero-copy shard payloads over ``multiprocessing.shared_memory``.

Pickling shard *data* through the executor's pipe into process workers
costs more than the scan itself (``BENCH_parallel.json``).  This module
moves the bulk payload into POSIX shared memory: the parent transposes
each input's basis words straight into one :class:`SharedArena`
segment per dispatch, and shard payloads carry only tiny ``(segment,
offset, dtype, shape)`` descriptors (:class:`ShmArray`).  Workers map
the segment once (a per-process attach memo) and build NumPy views
straight over the shared pages — no serialisation, no copy.

Lifecycle contract (the part that must never leak):

* the **parent** is the only creator and the only unlinker.  An arena
  is ref-counted (``with arena:`` nests); the segment is unlinked when
  the count drops to zero, and a ``weakref.finalize`` + ``atexit``
  backstop unlinks it even if the scan path never gets there (worker
  fault, timeout, exception, interpreter exit);
* **workers** only ever attach.  Attachments are memoised per process
  and closed at worker exit.  Attaching re-registers the name with the
  multiprocessing resource tracker (bpo-39959), but every pool worker
  — fork, spawn, or forkserver — shares the *parent's* tracker
  process, whose cache is a set: the duplicate register is a no-op and
  the parent's single ``unlink`` balances it.  Workers must therefore
  never ``unregister`` (that would delete the shared entry out from
  under the parent);
* unlink-while-attached is safe on POSIX: the ``/dev/shm`` name
  disappears immediately and the pages are freed when the last mapping
  closes, so a hung worker cannot pin a leak past its own lifetime.

``active_segments()`` lists the arenas this process currently owns —
the leak assertion the fault-path tests run after every scan.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs

#: allocation alignment inside an arena (cache line)
_ALIGN = 64

_REG = obs.registry()
_SEGMENTS_TOTAL = _REG.counter(
    "repro_shm_segments_total",
    "Shared-memory arenas created for shard payloads")
_BYTES_TOTAL = _REG.counter(
    "repro_shm_bytes_total",
    "Bytes allocated into shared-memory arenas")
_SEGMENTS_ACTIVE = _REG.gauge(
    "repro_shm_segments_active",
    "Shared-memory arenas currently owned (created, not yet unlinked)")
_BYTES_ACTIVE = _REG.gauge(
    "repro_shm_bytes_active",
    "Bytes in currently owned shared-memory arenas")
_UNLINK_FAILURES = _REG.counter(
    "repro_shm_unlink_failures_total",
    "Arena unlinks that failed (segment already gone)")

_SEQ = itertools.count()

#: arenas this process created and has not yet unlinked, by name
_OWNED: Dict[str, "SharedArena"] = {}
_OWNED_LOCK = threading.Lock()


#: segments whose ``close()`` hit BufferError at dispose time because a
#: live NumPy view still pinned the mapping.  The name is already
#: unlinked by then, so nothing leaks in ``/dev/shm`` — we keep the
#: mapping referenced here (suppressing a noisy ``__del__``) and retry
#: the close once the views have died.
_ZOMBIES: List[shared_memory.SharedMemory] = []


def _reap_zombies() -> None:
    for shm in list(_ZOMBIES):
        try:
            shm.close()
        except BufferError:
            continue
        _ZOMBIES.remove(shm)


# -- descriptors (what a payload actually carries) ---------------------------


@dataclass(frozen=True)
class ShmArray:
    """A NumPy array inside a shared segment."""

    segment: str
    offset: int
    dtype: str
    shape: Tuple[int, ...]

    def resolve(self) -> np.ndarray:
        """A zero-copy ndarray view over the shared pages."""
        shm = attach(self.segment)
        count = int(np.prod(self.shape)) if self.shape else 1
        flat = np.frombuffer(shm.buf, dtype=np.dtype(self.dtype),
                             count=count, offset=self.offset)
        return flat.reshape(self.shape)


# -- the parent-side arena ---------------------------------------------------


class SharedArena:
    """One shared-memory segment, bump-allocated, ref-counted.

    The creating process owns the segment and must (and will) unlink
    it exactly once: explicitly via :meth:`release` / ``with``, or
    through the finalizer/atexit backstops.
    """

    def __init__(self, capacity: int, tag: str = "scan"):
        capacity = max(1, int(capacity))
        self.owner_pid = os.getpid()
        self.name = f"repro-shm-{self.owner_pid}-{next(_SEQ)}-{tag}"
        self._shm = shared_memory.SharedMemory(name=self.name,
                                               create=True,
                                               size=capacity)
        self.capacity = self._shm.size  # may round up to page size
        self.used = 0
        self._refs = 1
        self._lock = threading.Lock()
        self._closed = False
        with _OWNED_LOCK:
            _OWNED[self.name] = self
            _SEGMENTS_ACTIVE.set(len(_OWNED))
            _BYTES_ACTIVE.set(sum(a.capacity for a in _OWNED.values()))
        _SEGMENTS_TOTAL.inc()
        # Backstop: unlink even if no scan-path finally ever runs.
        self._finalizer = weakref.finalize(self, _dispose, self.name)

    # -- allocation --------------------------------------------------------

    def _bump(self, nbytes: int) -> int:
        start = (self.used + _ALIGN - 1) // _ALIGN * _ALIGN
        if start + nbytes > self.capacity:
            raise MemoryError(
                f"arena {self.name} overflow: need {nbytes} at {start}, "
                f"capacity {self.capacity}")
        self.used = start + nbytes
        _BYTES_TOTAL.inc(nbytes)
        return start

    def alloc_array(self, shape: Tuple[int, ...],
                    dtype=np.uint64) -> Tuple[np.ndarray, ShmArray]:
        """Reserve an uninitialised array inside the arena and return
        ``(view, descriptor)`` — the caller writes results (e.g. a
        transpose) straight into the shared pages."""
        dt = np.dtype(dtype)
        count = int(np.prod(shape)) if shape else 1
        offset = self._bump(count * dt.itemsize)
        flat = np.frombuffer(self._shm.buf, dtype=dt, count=count,
                             offset=offset)
        return (flat.reshape(shape),
                ShmArray(self.name, offset, dt.str, tuple(shape)))

    def put_array(self, array: np.ndarray) -> ShmArray:
        view, ref = self.alloc_array(array.shape, array.dtype)
        view[...] = array
        return ref

    # -- lifecycle ---------------------------------------------------------

    def acquire(self) -> "SharedArena":
        with self._lock:
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs > 0:
                return
        self._finalizer.detach()
        _dispose(self.name)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _dispose(name: str) -> None:
    """Close + unlink one owned arena (idempotent).

    Forked children (persistent pool workers) inherit ``_OWNED`` and
    the arena finalizers; they must never unlink the parent's live
    segment, so only the creating process unlinks — a child merely
    drops its inherited mapping.
    """
    with _OWNED_LOCK:
        arena = _OWNED.pop(name, None)
        _SEGMENTS_ACTIVE.set(len(_OWNED))
        _BYTES_ACTIVE.set(sum(a.capacity for a in _OWNED.values()))
    if arena is None or arena._closed:
        return
    arena._closed = True
    if arena.owner_pid == os.getpid():
        try:
            arena._shm.unlink()
        except (OSError, FileNotFoundError):
            _UNLINK_FAILURES.inc()
    try:
        arena._shm.close()
    except BufferError:
        # A live NumPy view (e.g. a serial-fallback basis slice still in
        # a caller's hands) pins the mapping.  The name is unlinked
        # above, so the segment cannot leak; park the mapping and close
        # it once the views die.
        _ZOMBIES.append(arena._shm)
    _reap_zombies()


def active_segments() -> List[str]:
    """Names of arenas this process owns right now (leak probe)."""
    with _OWNED_LOCK:
        return sorted(_OWNED)


def dispose_all() -> None:
    """Unlink every owned arena (atexit backstop; also test cleanup)."""
    for name in active_segments():
        _dispose(name)
    _reap_zombies()


atexit.register(dispose_all)


# -- worker-side attach memo -------------------------------------------------

#: segment name → attached SharedMemory, per process.  Workers map a
#: segment once per dispatch and keep it mapped: NumPy views handed to
#: kernels forbid closing mid-task (BufferError), and a persistent
#: worker will typically see the next scan's segment immediately after.
#: Everything is closed at process exit; the parent's unlink (which
#: may have happened long before) already removed the name.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_ATTACH_LOCK = threading.Lock()


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach (memoised) to segment ``name``.

    In the creating process this resolves to the arena's own mapping,
    so parent-side fallbacks never re-attach through ``/dev/shm``.
    """
    with _OWNED_LOCK:
        owned = _OWNED.get(name)
    if owned is not None:
        return owned._shm
    with _ATTACH_LOCK:
        shm = _ATTACHED.get(name)
        if shm is None:
            # Attaching re-registers the name with the (shared, parental)
            # resource tracker; that duplicate register is a set no-op
            # and the parent's unlink balances it, so no unregister here.
            shm = shared_memory.SharedMemory(name=name, create=False)
            _ATTACHED[name] = shm
        return shm


def close_attachments() -> None:
    """Drop every memoised attachment (worker exit / test isolation)."""
    with _ATTACH_LOCK:
        names = list(_ATTACHED)
        for name in names:
            shm = _ATTACHED.pop(name)
            try:
                shm.close()
            except BufferError:  # a live view still pins the mapping
                _ATTACHED[name] = shm


atexit.register(close_attachments)
