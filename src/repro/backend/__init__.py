"""Compiled execution backend (the paper's NVRTC JIT analog).

Instead of interpreting bitstream programs statement-by-statement, this
package lowers a :class:`~repro.ir.program.Program` to ONE specialised
Python function over Python-int bitstreams (one int per stream, one C
loop per op), compiles it once, and caches it under a structural
fingerprint so repeated harness cells and structurally repeated regex
groups pay zero recompilation.  Character classes leave the kernels:
one :class:`ClassTable` per compiled group computes each class its
programs read once per input.  Inputs cross the kernel boundary as
``uint64`` word arrays; outputs stay ints until one is read.

Front doors:

* :func:`compile_group` — programs → cached kernels on one class table
* :func:`compile_program` — one program, its own one-program table
* :func:`basis_environment` — one input → its ``(8, W)`` basis words
* :func:`dispatch_words` / :func:`iter_dispatch` — many CTAs over one
  input's basis words (several inputs are several dispatches); the
  first returns word arrays, the second yields the kernels' ints
* :func:`kernel_cache` — the process-wide cache (hit-rate reporting)
"""

from .codegen import CompileError, generate_source
from .compiled import (CacheStats, ClassTable, CompiledKernel,
                       CompiledProgram, KernelCache, compile_group,
                       compile_program, kernel_cache)
from .executor import dispatch_words, estimate_metrics, iter_dispatch
from .fingerprint import cache_key, canonicalize, fingerprint
from .runtime import KernelInput, KernelStats, basis_environment

__all__ = [
    "CacheStats",
    "ClassTable",
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
    "dispatch_words",
    "estimate_metrics",
    "fingerprint",
    "generate_source",
    "iter_dispatch",
    "kernel_cache",
]
