"""Compiled program objects and the fingerprint-keyed kernel cache.

``compile_program`` is the backend's front door: it canonicalises a
program (:mod:`repro.backend.fingerprint`), looks the digest up in the
process-wide :class:`KernelCache`, and only on a miss generates and
``compile()``s kernel source (:mod:`repro.backend.codegen`).  Repeated
harness cells, repeated blocks, and structurally repeated regex groups
all reuse one code object — the simulator analog of the paper's cached
NVRTC kernels.

A :class:`CompiledProgram` binds a shared :class:`CompiledKernel` to
one program instance's non-structural data: its character-class
parameters and its output names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..ir.program import Program
from . import runtime
from .codegen import CompileError, generate_source
from .fingerprint import CanonicalProgram, canonicalize

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
    program (and every CTA dispatched over them)."""

    fingerprint: str
    source: str
    func: Callable
    cc_count: int
    output_names: Tuple[str, ...]
    honour_guards: bool
    #: the module code object the kernel was exec'd from — what the
    #: on-disk cache persists (marshal round-trips code objects)
    code: Optional[object] = None

    def __call__(self, stream: runtime.KernelInput, params: Tuple[int, ...]):
        """Run over one input; returns (output ints, stats)."""
        stats = runtime.KernelStats()
        return self.func(stream, params, stats), stats


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

    def get_or_compile(self,
                       canonical: CanonicalProgram) -> CompiledKernel:
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


def _build_kernel(canonical: CanonicalProgram,
                  source: Optional[str] = None,
                  code=None) -> CompiledKernel:
    """Build a kernel, reusing a persisted ``source``/``code`` pair
    (from the on-disk cache) when provided instead of regenerating."""
    if source is None:
        source = generate_source(canonical)
    if code is None:
        code = compile(source,
                       f"<bitgen-kernel-{canonical.digest[:12]}>",
                       "exec")
    namespace: Dict[str, object] = {}
    exec(code, namespace)
    outputs = canonical.tokens[3]
    return CompiledKernel(fingerprint=canonical.digest, source=source,
                          func=namespace["_kernel"],
                          cc_count=len(canonical.cc_classes),
                          output_names=outputs,
                          honour_guards=canonical.honour_guards,
                          code=code)


def _cc_params(canonical: CanonicalProgram) -> Tuple[int, ...]:
    """Per-program parameters: ``P[8 * j + k]`` is the
    :attr:`~repro.backend.runtime.KernelInput.planes` index cc slot
    ``j`` ANDs for bit ``k`` — plane ``bk`` where the byte's bit is
    set, its complement ``8 + k`` where it is clear."""
    params = []
    for cc in canonical.cc_classes:
        if not cc.is_single():
            raise CompileError(
                "MATCH_CC supports only singleton classes; expand "
                "multi-byte classes with CCCompiler")
        byte = cc.single_byte()
        params.extend(k if (byte >> (7 - k)) & 1 else 8 + k
                      for k in range(8))
    return tuple(params)


@dataclass
class CompiledProgram:
    """A shared kernel bound to one program's parameters and outputs."""

    program: Program
    kernel: CompiledKernel
    params: Tuple[int, ...]
    output_names: List[str] = field(default_factory=list)

    def run(self, stream: runtime.KernelInput):
        """Execute over one converted input; returns (name → output
        int, :class:`~repro.backend.runtime.KernelStats`)."""
        raw, stats = self.kernel(stream, self.params)
        return dict(zip(self.output_names, raw)), stats

    def run_words(self, stream: runtime.KernelInput):
        """:meth:`run`, with each output as a ``(W,)`` uint64 word
        array."""
        outputs, stats = self.run(stream)
        return ({name: runtime.to_words(value, stream.length)
                 for name, value in outputs.items()}, stats)

    def run_data(self, data: bytes):
        """Transpose ``data`` and execute; returns (name → uint64
        word array, stats) over ``len(data) + 1`` bits."""
        return self.run_words(runtime.KernelInput.of(data))


def compile_program(program: Program, honour_guards: bool = False,
                    cache: Optional[KernelCache] = None
                    ) -> CompiledProgram:
    """Lower ``program`` to its cached compiled kernel."""
    canonical = canonicalize(program, honour_guards=honour_guards)
    store = cache if cache is not None else _GLOBAL_CACHE
    kernel = store.get_or_compile(canonical)
    return CompiledProgram(program=program, kernel=kernel,
                           params=_cc_params(canonical),
                           output_names=list(program.outputs.keys()))
