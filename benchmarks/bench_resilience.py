"""Resilience overhead benchmark: the clean-path cost guard and
per-fault-kind recovery latency.

Not a paper experiment — this audits :mod:`repro.resilience` itself.
Two questions:

1. **What does resilience cost when nothing faults?**  The dispatch
   measured is a warm :meth:`Harness.run_all` grid on two thread
   workers (Snort and Bro217 at scale 0.005 with 2 KiB inputs, times
   BitGen and HS-1T: four cells of a few milliseconds, so a recovery
   shows against the clean dispatch; the pool's one job, since scans
   never reach it).  The hooks on a clean dispatch are
   ``chaos.maybe_inject``/``chaos.armed`` (two env reads when
   disarmed), one breaker ``allow()``, one breaker
   ``record_success()``, one worker-side ``maybe_inject`` per cell,
   and a ``Deadline`` that is ``None``-checked per wait.  As with the
   obs no-op guard, the bound is computed: count the hook sites a
   dispatch executes, measure each disabled hook's per-call cost
   directly, and bound the overhead as
   ``hooks * cost / dispatch_wall_time``.  CI fails if that fraction
   exceeds :data:`MAX_CLEAN_OVERHEAD` (the ISSUE 7 budget is 2%).
2. **What does recovery cost?**  Wall-clock latency of a grid
   dispatch that eats one transient injected fault, per fault kind, at
   ``max_retries`` 0 (inline degrade), 1, and 2 — recorded, not
   asserted; recovery is allowed to cost what it costs.

Results land in ``BENCH_resilience.json``.  Runs standalone
(``python benchmarks/bench_resilience.py [--quick]``, the CI guard
mode) or under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from _timing import best_of
from repro.parallel import pool as pool_mod
from repro.parallel.config import ScanConfig
from repro.perf.harness import Harness
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan, ChaosRule

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

APPS = ["Snort", "Bro217"]
ENGINES = ("BitGen", "HS-1T")

#: CI guard: disarmed resilience hooks may cost at most this fraction
#: of a clean parallel dispatch's wall time.
MAX_CLEAN_OVERHEAD = 0.02


def build_harness() -> Harness:
    """The grid's harness, warmed: every workload built and every
    engine compiled, so a dispatch times the cells' scans."""
    harness = Harness(scale=0.005, input_bytes=2048)
    harness.run_all(APPS, ENGINES)
    return harness


def thread_config(**extra):
    defaults = dict(workers=2, executor="thread")
    defaults.update(extra)
    return ScanConfig(**defaults)


def grid(harness, config):
    return harness.run_all(APPS, ENGINES, config=config)


def per_call_costs() -> dict:
    """Per-call cost of each disarmed hook, best of five batches."""
    assert not chaos.armed()
    iterations = 50_000
    costs = {}

    def measure(name, fn):
        best = float("inf")
        for _ in range(5):
            begin = time.perf_counter()
            for _ in range(iterations):
                fn()
            best = min(best, time.perf_counter() - begin)
        costs[name] = best / iterations

    breaker = pool_mod.breaker()
    measure("chaos_maybe_inject", lambda: chaos.maybe_inject("bench"))
    measure("breaker_allow", breaker.allow)
    measure("breaker_record_success", breaker.record_success)
    return costs


def clean_path_guard(harness, repeat: int) -> dict:
    """The computed clean-path bound over a warm grid dispatch."""
    config = thread_config()
    grid(harness, config)                    # warm pool + worker harness
    wall, runs = best_of(lambda: grid(harness, config), repeat)
    assert harness.last_scan_faults == []

    shards = len(runs)
    costs = per_call_costs()
    # Hook sites on one clean dispatch: maybe_inject + armed() in
    # _acquire (charged as two maybe_inject-class env reads), one
    # breaker allow(), one record_success(), and one worker-side
    # maybe_inject per shard (grid cell).
    hook_seconds = ((2 + shards) * costs["chaos_maybe_inject"]
                    + costs["breaker_allow"]
                    + costs["breaker_record_success"])
    overhead = hook_seconds / max(wall, 1e-12)
    return {
        "dispatch_wall_seconds": wall,
        "shards": shards,
        "per_call_seconds": costs,
        "hook_seconds_per_dispatch": hook_seconds,
        "clean_overhead_bound": overhead,
    }


def recovery_latency(harness, kind: str, max_retries: int,
                     clean_wall: float) -> dict:
    """Wall time of one grid dispatch that eats a single transient
    fault."""
    os.environ[chaos.SLEEP_ENV] = "0.5"
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind=kind, max_count=1),)))
    try:
        config = thread_config(
            on_fault="retry", max_retries=max_retries,
            retry_backoff=0.01,
            worker_timeout=0.3 if kind == "timeout" else None)
        begin = time.perf_counter()
        grid(harness, config)
        wall = time.perf_counter() - begin
        faults = harness.last_scan_faults
        fallbacks = sorted({f.fallback for f in faults})
        retries = max((f.retries for f in faults), default=0)
    finally:
        chaos.reset()
        pool_mod.breaker().reset()
    return {
        "kind": kind,
        "max_retries": max_retries,
        "wall_seconds": wall,
        "recovery_seconds": max(wall - clean_wall, 0.0),
        "faults": len(faults),
        "fallbacks": fallbacks,
        "retries_used": retries,
    }


def run(quick: bool) -> dict:
    repeat = 3 if quick else 5
    chaos.reset()
    pool_mod.breaker().reset()
    harness = build_harness()

    guard = clean_path_guard(harness, repeat)
    clean_wall = guard["dispatch_wall_seconds"]

    recovery = []
    for kind in ("exception", "timeout"):
        for max_retries in (0, 1, 2):
            recovery.append(
                recovery_latency(harness, kind, max_retries,
                                 clean_wall))

    payload = {
        "benchmark": "repro.resilience overhead: clean-path guard and "
                     "recovery latency per fault kind, over a warm "
                     "harness grid dispatch",
        "mode": "quick" if quick else "full",
        "max_clean_overhead_budget": MAX_CLEAN_OVERHEAD,
        "clean_path": guard,
        "recovery": recovery,
    }

    print(f"resilience overhead benchmark ({payload['mode']})")
    costs = guard["per_call_seconds"]
    print(f"  disarmed chaos.maybe_inject(): "
          f"{costs['chaos_maybe_inject'] * 1e9:.0f} ns/call")
    print(f"  breaker allow()+record_success(): "
          f"{(costs['breaker_allow'] + costs['breaker_record_success']) * 1e9:.0f} ns")
    print(f"  clean grid dispatch: {clean_wall * 1e3:.2f} ms over "
          f"{guard['shards']} cells -> clean-path bound "
          f"{guard['clean_overhead_bound']:.4%} "
          f"(budget {MAX_CLEAN_OVERHEAD:.0%})")
    for row in recovery:
        print(f"  recover {row['kind']:<10} max_retries="
              f"{row['max_retries']}  wall {row['wall_seconds']*1e3:7.2f}ms "
              f"(+{row['recovery_seconds']*1e3:6.2f}ms) "
              f"fallbacks={','.join(row['fallbacks']) or '-'}")

    assert guard["clean_overhead_bound"] < MAX_CLEAN_OVERHEAD, \
        f"disarmed resilience hooks cost " \
        f"{guard['clean_overhead_bound']:.2%} of a clean dispatch " \
        f"(budget {MAX_CLEAN_OVERHEAD:.0%})"

    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_resilience_overhead_quick():
    run(quick=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI guard mode)")
    options = parser.parse_args(argv)
    run(quick=options.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
