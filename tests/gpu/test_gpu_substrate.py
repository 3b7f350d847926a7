"""GPU substrate: geometry, memory accounting, metrics."""

import pytest

from repro.gpu.config import (ALL_GPUS, H100_NVL, L40S, RTX_3090,
                              XEON_8562Y, gpu_by_name)
from repro.gpu.machine import CTAGeometry, DEFAULT_GEOMETRY
from repro.gpu.memory import GlobalMemory, SharedMemory, \
    SharedMemoryOverflow
from repro.gpu.metrics import KernelMetrics


# -- geometry -----------------------------------------------------------------

def test_default_geometry_matches_paper():
    # T = 512 threads, W = 32 bits -> 16,384-bit blocks and the
    # 16,384-bit maximum overlap of Section 8.2.
    assert DEFAULT_GEOMETRY.threads == 512
    assert DEFAULT_GEOMETRY.word_bits == 32
    assert DEFAULT_GEOMETRY.block_bits == 16384
    assert DEFAULT_GEOMETRY.max_overlap_bits == 16384


def test_block_count_formula():
    geometry = CTAGeometry(threads=4, word_bits=2)  # 8-bit blocks
    assert geometry.block_count(0) == 1
    assert geometry.block_count(1) == 1
    assert geometry.block_count(8) == 1
    assert geometry.block_count(9) == 2
    assert geometry.block_count(16) == 2


def test_block_ranges_cover_stream():
    geometry = CTAGeometry(threads=4, word_bits=2)
    blocks = list(geometry.iter_blocks(19))
    assert blocks[0] == (0, 0, 8)
    assert blocks[-1] == (2, 16, 19)
    covered = sum(end - start for _, start, end in blocks)
    assert covered == 19


def test_word_alignment():
    geometry = CTAGeometry(threads=8, word_bits=4)
    assert geometry.align_down(7) == 4
    assert geometry.align_up(7) == 8
    assert geometry.align_up(8) == 8
    assert geometry.words(9) == 3


def test_invalid_geometry():
    with pytest.raises(ValueError):
        CTAGeometry(threads=0, word_bits=32)


# -- memory -------------------------------------------------------------------------

def test_global_memory_traffic():
    metrics = KernelMetrics()
    memory = GlobalMemory(metrics)
    memory.read(100)
    memory.write(50)
    assert metrics.dram_read_bytes == 100
    assert metrics.dram_write_bytes == 50
    assert metrics.dram_total_bytes() == 150


def test_global_memory_footprint_peak():
    metrics = KernelMetrics()
    memory = GlobalMemory(metrics)
    memory.allocate_stream("a", 1000)
    memory.allocate_stream("b", 2000)
    memory.free_stream("a")
    memory.allocate_stream("c", 500)
    assert metrics.peak_intermediate_bytes == 3000
    assert metrics.intermediate_streams == 3
    assert memory.live_bytes == 2500


def test_shared_memory_capacity_enforced():
    metrics = KernelMetrics()
    smem = SharedMemory(metrics, capacity_bytes=1024)
    smem.reserve(512)
    smem.reserve(512)
    with pytest.raises(SharedMemoryOverflow):
        smem.reserve(1)
    smem.release_all()
    smem.reserve(1024)
    assert smem.peak_bytes == 1024


# -- metrics -----------------------------------------------------------------------

def test_metrics_merge_sums_and_maxes():
    a = KernelMetrics(thread_word_ops=10, barriers=2,
                      dynamic_overlap_max=5)
    b = KernelMetrics(thread_word_ops=20, barriers=3,
                      dynamic_overlap_max=9)
    a.merge(b)
    assert a.thread_word_ops == 30
    assert a.barriers == 5
    assert a.dynamic_overlap_max == 9


def test_metrics_merge_matches_fieldwise_reference():
    """Every field merges as the per-field walk did: the three peak /
    static-bound fields take the max, all others sum."""
    import dataclasses
    import random

    maxed = {"dynamic_overlap_max", "peak_intermediate_bytes",
             "static_overlap_bits"}
    names = [f.name for f in dataclasses.fields(KernelMetrics)]
    rng = random.Random(3)
    for _ in range(50):
        left = KernelMetrics(**{n: rng.randrange(100) for n in names})
        right = KernelMetrics(**{n: rng.randrange(100) for n in names})
        expected = {n: (max if n in maxed else int.__add__)(
            getattr(left, n), getattr(right, n)) for n in names}
        left.merge(right)
        assert dataclasses.asdict(left) == expected


def test_metrics_recompute_fraction():
    metrics = KernelMetrics(recomputed_bits=10, output_bits=90)
    assert metrics.recompute_fraction() == pytest.approx(0.1)
    assert KernelMetrics().recompute_fraction() == 0.0


def test_metrics_summary_readable():
    text = KernelMetrics(thread_word_ops=7).summary()
    assert "ops=7" in text


# -- configs -----------------------------------------------------------------------

def test_gpu_lookup():
    assert gpu_by_name("RTX 3090") is RTX_3090
    with pytest.raises(KeyError):
        gpu_by_name("GTX 480")


def test_paper_tiops_ratio():
    # Section 8.3: 17.8 : 33.5 : 45.8 = 1 : 1.9 : 2.6
    ratio_h100 = H100_NVL.int_tiops / RTX_3090.int_tiops
    ratio_l40s = L40S.int_tiops / RTX_3090.int_tiops
    assert ratio_h100 == pytest.approx(1.9, abs=0.05)
    assert ratio_l40s == pytest.approx(2.6, abs=0.05)


def test_cpu_config():
    assert XEON_8562Y.cores == 32
    assert XEON_8562Y.single_core_ops_per_second() > 0
