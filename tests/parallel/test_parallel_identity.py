"""Scans ignore the pool settings; harness grids do not.

Every scan runs :meth:`BitGenEngine.match_words` in the calling
thread: a config asking for workers scans exactly as ``workers=1``
does — same match positions, aggregated metrics and gate reports —
and acquires no pool.  A :meth:`Harness.run_all` grid is the one thing
the pool runs, and its rows equal the serial grid's.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BitGenEngine
from repro.core.schemes import Scheme
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.parallel.pool import pool_stats

from .helpers import grid, pool_config, rows

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "colou?r", "cat|dog", "[0-9][0-9]",
            "xy+z", "foo", "bar", "qux"]

DATA = b"abcbcd colour cat 42 xyyz foo bar qux color abcd " * 20

STREAMS = [DATA[:97], DATA[:200], DATA[:97], DATA[:500], DATA[:64],
           DATA[:200], DATA[:33]]


def build(backend, scheme=Scheme.ZBS, **pool):
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, backend=backend,
                                    scheme=scheme, cta_count=4,
                                    loop_fallback=True, **pool))


def acquisitions() -> float:
    stats = pool_stats()
    return stats["warm"] + stats["cold"]


def assert_results_identical(parallel, serial):
    assert len(parallel) == len(serial)
    for left, right in zip(parallel, serial):
        assert left.ends == right.ends
        assert left.metrics == right.metrics
        assert left.cta_metrics == right.cta_metrics


# -- match_many ---------------------------------------------------------------


@pytest.mark.parametrize("backend", ["simulate", "compiled"])
@pytest.mark.parametrize("scheme", [Scheme.BASE, Scheme.SR, Scheme.ZBS])
def test_match_many_identical_across_schemes(backend, scheme):
    serial = build(backend, scheme).match_many(STREAMS)
    before = acquisitions()
    parallel = build(backend, scheme, workers=3,
                     executor="thread").match_many(STREAMS)
    assert_results_identical(parallel, serial)
    assert acquisitions() == before


# -- prefiltered scans ----------------------------------------------------------

GATED_PATTERNS = [f"sig{i:05d}[0-9]+x" for i in range(40)] \
    + ["[a-y][a-y0-9]*z3q"]
#: each stream fires different gate literals; the last fires none
GATED_STREAMS = [b"sig00003 17x .. sig00017 4x ab0z3q " * 40,
                 b"zz sig00025 9x " * 60, b"." * 1500]


def gated_engine(backend, **pool):
    return BitGenEngine.compile(
        GATED_PATTERNS, config=ScanConfig(backend=backend, cta_count=8,
                                          prefilter=True, **pool))


def gated_view(report, cta_metrics, gate):
    """What must agree: the report, the per-CTA metrics, and the gate
    report."""
    return report.to_dict(), cta_metrics, gate.to_dict()


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("backend", ["simulate", "compiled"])
def test_prefiltered_match_many_identical(backend, executor):
    serial = gated_engine(backend).match_many(GATED_STREAMS)
    engine = gated_engine(backend, workers=2, executor=executor)
    before = acquisitions()
    parallel = engine.match_many(GATED_STREAMS)
    assert acquisitions() == before
    assert [gated_view(r.report(), r.cta_metrics, r.prefilter)
            for r in parallel] == \
        [gated_view(r.report(), r.cta_metrics, r.prefilter)
         for r in serial]
    # Each stream was gated on its own bytes.
    assert [r.prefilter.input_bytes for r in parallel] == \
        [len(s) for s in GATED_STREAMS]


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("backend", ["simulate", "compiled"])
def test_prefiltered_scan_identical(backend, executor):
    data = b"".join(GATED_STREAMS)
    serial_engine = gated_engine(backend)
    serial = serial_engine.scan(data)
    engine = gated_engine(backend, workers=2, executor=executor)
    before = acquisitions()
    parallel = engine.scan(data)
    assert acquisitions() == before
    assert serial_engine.last_prefilter.skipped > 0
    assert gated_view(parallel, parallel.cta_metrics,
                      engine.last_prefilter) == \
        gated_view(serial, serial.cta_metrics,
                   serial_engine.last_prefilter)


# -- scans inside process workers ------------------------------------------


@pytest.mark.slow
def test_match_many_identical_through_process_pool(tmp_path):
    """What a grid cell does in a process worker — compile, attach the
    shared disk cache, ``match_many`` — equals the parent's scan."""
    from repro.parallel.pool import WorkerPool
    from repro.parallel.worker import attach_disk_cache

    from .helpers import match_many_task

    cache_dir = str(tmp_path / "kernels")
    engine = build("compiled")
    serial = [(r.ends, r.metrics, r.cta_metrics)
              for r in engine.match_many(STREAMS)]
    attach_disk_cache(cache_dir)
    engine.build_kernels()            # the parent seeds the disk cache
    pool = WorkerPool(pool_config(executor="process",
                                  cache_dir=cache_dir))
    halves = [STREAMS[:4], STREAMS[4:]]
    results, faults = pool.map_shards(
        match_many_task,
        [(PATTERNS, engine.config, half, cache_dir) for half in halves])
    assert faults == []
    assert results[0] + results[1] == serial
    assert any((tmp_path / "kernels").iterdir())


# -- harness grid ------------------------------------------------------------


def test_run_all_identical():
    assert rows(grid(pool_config())) == rows(grid())
