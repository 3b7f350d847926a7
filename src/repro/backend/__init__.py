"""Compiled execution backend (the paper's NVRTC JIT analog).

Instead of interpreting bitstream programs statement-by-statement, this
package lowers a :class:`~repro.ir.program.Program` to ONE specialised
Python function over Python-int bitstreams (one int per stream, one C
loop per op), compiles it once, and caches it under a structural
fingerprint so repeated harness cells and structurally repeated regex
groups pay zero recompilation.  Inputs and outputs cross the kernel
boundary as ``uint64`` word arrays.

Front doors:

* :func:`compile_program` — program → cached :class:`CompiledProgram`
* :func:`dispatch_programs` — many CTAs over one input
* :func:`dispatch_streams` — one CTA over many inputs
* :func:`kernel_cache` — the process-wide cache (hit-rate reporting)
"""

from .codegen import CompileError, generate_source
from .compiled import (CacheStats, CompiledKernel, CompiledProgram,
                       KernelCache, compile_program, kernel_cache)
from .executor import (compile_group, dispatch_programs,
                       dispatch_stream_classes, dispatch_streams,
                       dispatch_words, estimate_metrics,
                       stream_length_classes, transpose_stream_classes)
from .fingerprint import cache_key, canonicalize, fingerprint
from .runtime import KernelInput, KernelStats, basis_environment

__all__ = [
    "CacheStats",
    "CompileError",
    "CompiledKernel",
    "CompiledProgram",
    "KernelCache",
    "KernelInput",
    "KernelStats",
    "basis_environment",
    "cache_key",
    "canonicalize",
    "compile_group",
    "compile_program",
    "dispatch_programs",
    "dispatch_stream_classes",
    "dispatch_streams",
    "dispatch_words",
    "estimate_metrics",
    "fingerprint",
    "generate_source",
    "kernel_cache",
    "stream_length_classes",
    "transpose_stream_classes",
]
