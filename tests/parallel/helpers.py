"""Shared fixtures for the worker-pool tests: module-level tasks a
process pool can pickle by reference, a small harness grid, and the
rows two grid runs must share."""

from __future__ import annotations

from repro import obs
from repro.parallel.config import ScanConfig
from repro.perf.harness import Harness
from repro.resilience import chaos

#: payloads one dispatch maps over
PAYLOADS = [3, 1, 4, 1, 5]

#: a 4-cell grid at the smallest scale: about 0.6 s serially
GRID_APPS = ["Snort", "Bro217"]
GRID_ENGINES = ("BitGen", "HS-1T")


def cell(payload):
    """A stand-in grid cell: the ``worker.cell`` chaos site, then a
    result that depends on the payload alone, under a span of its
    own."""
    chaos.maybe_inject("worker.cell")
    with obs.span("cell", category="scan", payload=payload):
        return payload * payload


def match_many_task(payload):
    """Compile and ``match_many`` in the worker, with the disk kernel
    cache attached first, as a grid cell's BitGen run does."""
    from repro.core.engine import BitGenEngine
    from repro.parallel.worker import attach_disk_cache

    patterns, config, streams, cache_dir = payload
    attach_disk_cache(cache_dir)
    engine = BitGenEngine.compile(patterns, config=config)
    return [(result.ends, result.metrics, result.cta_metrics)
            for result in engine.match_many(streams)]


def expected(payloads=PAYLOADS):
    return [payload * payload for payload in payloads]


def pool_config(**extra):
    defaults = dict(workers=2, executor="thread")
    defaults.update(extra)
    return ScanConfig(**defaults)


def harness() -> Harness:
    return Harness(scale=0.005, input_bytes=2048)


def grid(config=None):
    """The small grid's rows, run serially or with ``config``'s pool."""
    return harness().run_all(GRID_APPS, GRID_ENGINES, config=config)


def rows(runs):
    """What two grid runs must agree on, cell by cell."""
    return [(run.app, run.engine, run.match_count, run.mbps, run.metrics)
            for run in runs]
