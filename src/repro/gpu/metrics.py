"""Kernel execution metrics.

Every execution scheme in ``repro.core`` produces a
:class:`KernelMetrics` describing exactly the quantities the paper's
evaluation profiles: DRAM traffic and footprint (Table 4), barrier and
shared-memory behaviour (Table 6), recomputation (Table 5), and the
work/skip counts Zero Block Skipping trades (Figure 14).  The analytic
model in ``repro.perf.model`` converts these into time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class KernelMetrics:
    """Counters for one kernel (one CTA's program over one input)."""

    # compute
    thread_word_ops: int = 0          # executed word-wide bitwise ops
    skipped_word_ops: int = 0         # ops avoided by Zero Block Skipping
    guard_checks: int = 0             # zero-guard evaluations
    guard_hits: int = 0               # guards that skipped their range

    # memory
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    smem_read_bytes: int = 0
    smem_write_bytes: int = 0
    peak_intermediate_bytes: int = 0  # footprint of materialised streams

    # synchronisation
    barriers: int = 0

    # structure (compile-time-ish)
    fused_loops: int = 0              # distinct block loops in the kernel
    intermediate_streams: int = 0     # materialised intermediate bitstreams
    shift_sync_points: int = 0        # barrier sites of SHIFT groups

    # interleaving / DTM
    blocks_processed: int = 0
    window_reruns: int = 0            # blocks re-run with a wider window
    loop_fallbacks: int = 0           # overlap-limit sequential fallbacks
    recomputed_bits: int = 0          # window bits outside the block
    output_bits: int = 0              # block bits produced
    static_overlap_bits: int = 0      # Δ from static analysis
    dynamic_overlap_total: int = 0    # sum of runtime extra lookback
    dynamic_overlap_max: int = 0
    loop_iterations: int = 0          # while-loop iterations executed

    def merge(self, other: "KernelMetrics") -> None:
        """Accumulate another kernel's counters into this one: peaks
        and static bounds take the max, every other counter sums."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _SUM_FIELDS:
            mine[name] += theirs[name]
        for name in _MAX_FIELDS:
            if theirs[name] > mine[name]:
                mine[name] = theirs[name]

    # -- derived quantities ---------------------------------------------------

    def dram_total_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def smem_total_bytes(self) -> int:
        return self.smem_read_bytes + self.smem_write_bytes

    def recompute_fraction(self) -> float:
        total = self.recomputed_bits + self.output_bits
        if total == 0:
            return 0.0
        return self.recomputed_bits / total

    def avg_dynamic_overlap(self) -> float:
        if self.blocks_processed == 0:
            return 0.0
        return self.dynamic_overlap_total / self.blocks_processed

    def summary(self) -> str:
        return (f"ops={self.thread_word_ops} skipped={self.skipped_word_ops} "
                f"dram={self.dram_total_bytes()}B smem={self.smem_total_bytes()}B "
                f"barriers={self.barriers} loops={self.fused_loops} "
                f"recompute={self.recompute_fraction():.2%}")


#: Fields :meth:`KernelMetrics.merge` combines with ``max``; every other
#: field sums.  Resolved once here, not per merge: a scan merges once
#: per executed group.
_MAX_FIELDS = ("peak_intermediate_bytes", "static_overlap_bits",
               "dynamic_overlap_max")
_SUM_FIELDS = tuple(f.name for f in fields(KernelMetrics)
                    if f.name not in _MAX_FIELDS)
