"""Compiled program objects, class tables and the kernel cache.

``compile_group`` is the backend's front door: it canonicalises each
program (:mod:`repro.backend.fingerprint`), looks the digest up in the
process-wide :class:`KernelCache`, and only on a miss generates and
``compile()``s kernel source (:mod:`repro.backend.codegen`).  Repeated
harness cells, repeated blocks, and structurally repeated regex groups
all reuse one code object — the simulator analog of the paper's cached
NVRTC kernels.

The programs of one group share one :class:`ClassTable`: every class
stream any of them reads, computed once per input by one straight-line
class kernel that goes through the same cache.  A
:class:`CompiledProgram` binds a shared :class:`CompiledKernel` to one
program instance's non-structural data: its table, the table index of
each of its parameter slots, and its output names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir.program import Program
from . import runtime
from .codegen import generate_source
from .fingerprint import CanonicalClasses, canonicalize

_REG = obs.registry()
_CACHE_LOOKUPS = _REG.counter(
    "repro_kernel_cache_lookups_total",
    "In-memory kernel cache lookups")
_CACHE_HITS = _REG.counter(
    "repro_kernel_cache_hits_total",
    "In-memory kernel cache hits (no codegen, no compile)")
_CACHE_MISSES = _REG.counter(
    "repro_kernel_cache_misses_total",
    "In-memory kernel cache misses (kernel was built or disk-loaded)")
_CACHE_DISK_HITS = _REG.counter(
    "repro_kernel_cache_disk_hits_total",
    "In-memory misses served from the on-disk cache")
_CACHE_SIZE = _REG.gauge(
    "repro_kernel_cache_kernels",
    "Distinct kernels resident in the in-memory cache")
_CODEGEN_SECONDS = _REG.histogram(
    "repro_codegen_seconds",
    "Wall time to generate + compile one kernel on a cache miss")


@dataclass
class CacheStats:
    """Hit/miss counters of one kernel cache."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    #: in-memory misses served from the on-disk cache (no codegen,
    #: no compile) — the pool-worker warm-start path
    disk_hits: int = 0

    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def reset(self) -> None:
        self.lookups = self.hits = self.misses = self.disk_hits = 0


@dataclass
class CompiledKernel:
    """One compiled code object, shared by every structurally equal
    program (and every CTA dispatched over them) or class table."""

    fingerprint: str
    source: str
    func: Callable
    #: the module code object the kernel was exec'd from — what the
    #: on-disk cache persists (marshal round-trips code objects)
    code: Optional[object] = None


class KernelCache:
    """Fingerprint → :class:`CompiledKernel`, with hit statistics.

    Optionally backed by a process-safe on-disk cache
    (:class:`repro.parallel.diskcache.DiskKernelCache`): in-memory
    misses first try to load the marshalled artefact another process
    (typically the pool parent) persisted, and fresh builds are
    written back for sibling workers.
    """

    def __init__(self, disk=None):
        self._kernels: Dict[str, CompiledKernel] = {}
        self.stats = CacheStats()
        self.disk = disk

    def __len__(self) -> int:
        return len(self._kernels)

    def clear(self) -> None:
        self._kernels.clear()
        self.stats.reset()

    def attach_disk(self, disk) -> None:
        """Back this cache with ``disk``, flushing already-resident
        kernels so earlier parent-side compilation is visible to
        workers that attach later."""
        from .fingerprint import cache_key

        self.disk = disk
        if disk is None:
            return
        for digest, kernel in self._kernels.items():
            if kernel.code is not None:
                disk.put(cache_key(digest), kernel.source, kernel.code)

    def get_or_compile(self, canonical) -> CompiledKernel:
        """The kernel of a :class:`~repro.backend.fingerprint.
        CanonicalProgram` or :class:`~repro.backend.fingerprint.
        CanonicalClasses`, built on a miss."""
        from .fingerprint import cache_key

        self.stats.lookups += 1
        _CACHE_LOOKUPS.inc()
        kernel = self._kernels.get(canonical.digest)
        if kernel is not None:
            self.stats.hits += 1
            _CACHE_HITS.inc()
            return kernel
        self.stats.misses += 1
        _CACHE_MISSES.inc()
        source = code = None
        persisted = False
        if self.disk is not None:
            entry = self.disk.get(cache_key(canonical.digest))
            if entry is not None:
                source, code = entry
                persisted = True
                self.stats.disk_hits += 1
                _CACHE_DISK_HITS.inc()
        begin = time.perf_counter()
        with obs.span("codegen", category="compile",
                      fingerprint=canonical.digest[:12],
                      disk_hit=persisted):
            kernel = _build_kernel(canonical, source=source, code=code)
        _CODEGEN_SECONDS.observe(time.perf_counter() - begin)
        self._kernels[canonical.digest] = kernel
        _CACHE_SIZE.set(len(self._kernels))
        if self.disk is not None and not persisted:
            self.disk.put(cache_key(canonical.digest), kernel.source,
                          kernel.code)
        return kernel


#: Process-wide cache; ``kernel_cache()`` is the supported accessor.
_GLOBAL_CACHE = KernelCache()


def kernel_cache() -> KernelCache:
    return _GLOBAL_CACHE


def _build_kernel(canonical, source: Optional[str] = None,
                  code=None) -> CompiledKernel:
    """Build a kernel, reusing a persisted ``source``/``code`` pair
    (from the on-disk cache) when provided instead of regenerating."""
    if source is None:
        source = generate_source(canonical)
    if code is None:
        code = compile(source,
                       f"<bitgen-kernel-{canonical.digest[:12]}>",
                       "exec")
    namespace: Dict[str, object] = dict(runtime.KERNEL_GLOBALS)
    exec(code, namespace)
    return CompiledKernel(fingerprint=canonical.digest, source=source,
                          func=namespace["_kernel"], code=code)


class ClassTable:
    """The class streams a group of compiled programs reads: each
    distinct key once (``index``: key -> entry), computed per input by
    one class kernel (looked up on first use, so compiling programs
    that never run costs no class kernel)."""

    def __init__(self, index: Dict[int, int], recipes: Dict[int, Tuple],
                 cache: KernelCache):
        self.index = index
        #: the entries' truth-table keys, in table order
        self.keys = tuple(index)
        self.canonical = CanonicalClasses(list(index), recipes)
        self._cache = cache
        self._kernel: Optional[CompiledKernel] = None

    def __len__(self) -> int:
        return len(self.index)

    @property
    def kernel(self) -> CompiledKernel:
        if self._kernel is None:
            self._kernel = self._cache.get_or_compile(self.canonical)
        return self._kernel

    def evaluate(self, stream: runtime.KernelInput) -> Tuple[int, ...]:
        """Every table entry over one input, in table order, their keys
        noted on ``stream`` for list-form ops."""
        entries = self.kernel.func(stream)
        stream.note_classes(self.keys, entries)
        return entries


@dataclass
class CompiledProgram:
    """A shared kernel bound to one program's class table, slot
    bindings and outputs."""

    program: Program
    kernel: CompiledKernel
    table: ClassTable
    #: table index of each parameter slot
    params: Tuple[int, ...]
    output_names: List[str] = field(default_factory=list)

    def run(self, stream: runtime.KernelInput,
            classes: Optional[Tuple[int, ...]] = None):
        """Execute over one converted input, reading ``classes`` (this
        program's table evaluated over ``stream``; computed here when
        omitted).  Returns (name → output, an int or a
        :class:`~repro.backend.runtime.Positions` list,
        :class:`~repro.backend.runtime.KernelStats`)."""
        if classes is None:
            classes = self.table.evaluate(stream)
        stats = runtime.KernelStats()
        raw = self.kernel.func(stream, classes, self.params, stats)
        return dict(zip(self.output_names, raw)), stats

    def run_data(self, data: bytes):
        """Transpose ``data`` and execute; returns (name → uint64
        word array, stats) over ``len(data) + 1`` bits."""
        stream = runtime.KernelInput.of(data)
        outputs, stats = self.run(stream)
        return ({name: runtime.to_words(value, stream.length)
                 for name, value in outputs.items()}, stats)


def compile_group(programs: Sequence[Program],
                  cache: Optional[KernelCache] = None, *,
                  honour_guards: bool = False) -> List[CompiledProgram]:
    """Lower ``programs`` to their cached kernels, bound to one shared
    class table.  Kernels run every guarded span, so ``honour_guards``
    is accepted for older callers and ignored."""
    store = cache if cache is not None else _GLOBAL_CACHE
    recipes: Dict[int, Tuple] = {}
    index: Dict[int, int] = {}
    bound = []
    for program in programs:
        canonical = canonicalize(program, recipes)
        params = tuple(index.setdefault(key, len(index))
                       for key in canonical.slot_keys)
        bound.append((program, store.get_or_compile(canonical), params))
    table = ClassTable(index, recipes, store)
    return [CompiledProgram(program=program, kernel=kernel, table=table,
                            params=params,
                            output_names=list(program.outputs.keys()))
            for program, kernel, params in bound]


def compile_program(program: Program,
                    cache: Optional[KernelCache] = None
                    ) -> CompiledProgram:
    """Lower one program to its cached kernel and a one-program class
    table."""
    return compile_group([program], cache)[0]
