"""Chaos soak: randomized fault injection over harness grid dispatch.

The CI ``chaos-soak`` job's entry point.  Runs a small
:meth:`Harness.run_all` grid (every Table 1 workload at scale 0.005
with 2 KiB inputs, times every engine: 50 cells of a few milliseconds
each once warm) through the worker pool repeatedly under a **seeded**
:class:`ChaosPlan` for every fault kind crossed with both executors,
and fails loudly if any of the resilience contracts break:

* grid rows must stay **identical to the serial grid** through every
  recovery path (degrade, retry, deadline, breaker);
* every fault kind must fire at least once;
* ``on_fault="fail"`` must raise :class:`ScanAbortedError`;
* ``on_fault="retry"`` must recover a transient fault *without*
  touching the inline fallback;
* a deadline grid must return within the deadline plus bounded
  recovery slack.

Scans never reach the pool (they run in the calling thread), so the
grid is what the soak drives.  Each round re-seeds the plan: process
workers are forked afresh for every armed dispatch from the same
parent state, so one seed would replay one draw sequence every round.
The matrix skips ``thread x exit`` on purpose: an ``exit`` injection
in a thread worker is ``os._exit`` of the soak itself.

Usage::

    python scripts/chaos_soak.py [--rounds N] [--seed S]

Artifacts: ``results/chaos_soak_metrics.json`` (per-cell fault counts
and the final obs counter snapshot) and
``results/chaos_soak_metrics.prom`` (the full metrics registry,
Prometheus text exposition).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.parallel.config import ScanConfig  # noqa: E402
from repro.parallel import pool as pool_mod  # noqa: E402
from repro.parallel.pool import shutdown  # noqa: E402
from repro.perf.harness import ENGINE_NAMES, Harness  # noqa: E402
from repro.resilience import chaos  # noqa: E402
from repro.resilience.chaos import ChaosPlan, ChaosRule  # noqa: E402
from repro.resilience.policy import ScanAbortedError  # noqa: E402
from repro.workloads.apps import ALL_APPS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

APPS = [app.name for app in ALL_APPS]
ENGINES = ENGINE_NAMES

#: the soak matrix: every fault kind on both executors, except the
#: suicidal thread+exit cell
MATRIX = [(executor, kind)
          for executor in ("thread", "process")
          for kind in ("exception", "timeout", "exit", "pool")
          if not (executor == "thread" and kind == "exit")]

INJECT_PROBABILITY = 0.05

#: ``pool`` draws once per dispatch and ``exit`` kills the pool's
#: draw sources with it — both see an order of magnitude fewer draws
#: per cell than worker exception/timeout sites, so they need a
#: higher per-draw probability to fire within a soak cell.
KIND_PROBABILITY = {"pool": 0.25, "exit": 0.15}


def rows(runs):
    """What a pooled grid must share with the serial one, cell by
    cell."""
    return [(run.app, run.engine, run.match_count, run.mbps,
             run.metrics) for run in runs]


def cell_config(executor: str, kind: str) -> ScanConfig:
    return ScanConfig(
        workers=2, executor=executor,
        worker_timeout=0.25 if kind == "timeout" else None)


def chaos_spec(kind: str, seed: int) -> str:
    site = "pool.acquire" if kind == "pool" else "worker.*"
    probability = KIND_PROBABILITY.get(kind, INJECT_PROBABILITY)
    return ChaosPlan(seed=seed, rules=(
        ChaosRule(site=site, kind=kind,
                  probability=probability),)).to_spec()


def soak_cell(harness, serial, executor: str, kind: str, seed: int,
              rounds: int) -> dict:
    """One matrix cell: ``rounds`` grid dispatches under env-armed
    chaos (env so process workers inherit it), re-seeded per round."""
    os.environ[chaos.SLEEP_ENV] = "0.5"
    faults = 0
    mismatches = 0
    config = cell_config(executor, kind)
    try:
        for round_index in range(rounds):
            os.environ[chaos.CHAOS_ENV] = chaos_spec(
                kind, seed * 1000 + round_index)
            chaos.reset()
            runs = harness.run_all(APPS, ENGINES, config=config)
            if rows(runs) != serial:
                mismatches += 1
            faults += len(harness.last_scan_faults)
    finally:
        os.environ.pop(chaos.CHAOS_ENV, None)
        os.environ.pop(chaos.SLEEP_ENV, None)
        chaos.reset()
        # Cells are independent: a breaker opened by this cell's pool
        # faults must not push the next cell (or the directed policy
        # checks) onto the inline path.
        pool_mod.breaker().reset()
    return {"executor": executor, "kind": kind, "seed": seed,
            "rounds": rounds, "fault_total": faults,
            "mismatches": mismatches}


def check_fail_policy(harness) -> None:
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    try:
        try:
            harness.run_all(APPS, ENGINES, config=cell_config(
                "thread", "x").replace(on_fault="fail"))
        except ScanAbortedError as exc:
            assert exc.fault.fallback == "abort", exc.fault
        else:
            raise AssertionError(
                "on_fault='fail' swallowed an injected fault")
    finally:
        chaos.reset()
        pool_mod.breaker().reset()


def check_retry_policy(harness, serial) -> None:
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception", max_count=1),)))
    try:
        runs = harness.run_all(APPS, ENGINES, config=cell_config(
            "thread", "x").replace(on_fault="retry", max_retries=2,
                                   retry_backoff=0.01))
        assert rows(runs) == serial
        assert harness.last_scan_faults, "transient fault never fired"
        for fault in harness.last_scan_faults:
            assert fault.fallback == "retry", \
                f"retry policy fell back inline: {fault.summary()}"
    finally:
        chaos.reset()
        pool_mod.breaker().reset()


def check_deadline(harness, serial) -> None:
    os.environ[chaos.SLEEP_ENV] = "2.0"
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout"),)))
    try:
        started = time.monotonic()
        runs = harness.run_all(APPS, ENGINES, config=cell_config(
            "thread", "x").replace(deadline_s=0.4))
        elapsed = time.monotonic() - started
        assert rows(runs) == serial
        faults = harness.last_scan_faults
        assert {f.kind for f in faults} == {"deadline"}, faults
        # deadline + inline recovery of the stragglers, nowhere near
        # the 2 s the workers sleep
        assert elapsed < 1.8, f"deadline grid took {elapsed:.2f}s"
    finally:
        os.environ.pop(chaos.SLEEP_ENV, None)
        chaos.reset()
        pool_mod.breaker().reset()


def counter_snapshot() -> dict:
    names = (
        "repro_chaos_injections_total",
        "repro_shard_faults_total",
        "repro_retry_attempts_total",
        "repro_deadline_exceeded_total",
        "repro_breaker_inline_total",
        "repro_parallel_pool_discards_total",
    )
    registry = obs.registry()
    snapshot = {}
    for name in names:
        try:
            snapshot[name] = registry.counter(name, "").value()
        except Exception:
            snapshot[name] = None
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=8,
                        help="grid dispatches per matrix cell")
    parser.add_argument("--seed", type=int, default=20260807,
                        help="base chaos seed (cell i uses seed+i)")
    options = parser.parse_args(argv)

    harness = Harness(scale=0.005, input_bytes=2048)
    serial = rows(harness.run_all(APPS, ENGINES))

    cells = []
    for index, (executor, kind) in enumerate(MATRIX):
        cell = soak_cell(harness, serial, executor, kind,
                         options.seed + index, options.rounds)
        cells.append(cell)
        print(f"  {executor:<8} {kind:<10} rounds={cell['rounds']} "
              f"faults={cell['fault_total']:<4} "
              f"mismatches={cell['mismatches']}")

    print("  directed policy checks: fail / retry / deadline")
    check_fail_policy(harness)
    check_retry_policy(harness, serial)
    check_deadline(harness, serial)
    shutdown()

    total_faults = sum(cell["fault_total"] for cell in cells)
    total_mismatches = sum(cell["mismatches"] for cell in cells)
    payload = {
        "benchmark": "chaos soak: seeded fault injection over "
                     "harness grid dispatch",
        "grid": {"apps": APPS, "engines": list(ENGINES),
                 "scale": harness.scale,
                 "input_bytes": harness.input_bytes},
        "seed": options.seed,
        "rounds_per_cell": options.rounds,
        "inject_probability": INJECT_PROBABILITY,
        "cells": cells,
        "total_faults_recovered": total_faults,
        "total_mismatches": total_mismatches,
        "counters": counter_snapshot(),
    }
    out_dir = ROOT / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "chaos_soak_metrics.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    try:
        obs.export.write_prometheus(
            obs.registry(), str(out_dir / "chaos_soak_metrics.prom"))
    except Exception as exc:  # metrics dump must not mask a clean soak
        print(f"  (prometheus dump skipped: {exc!r})")

    print(f"chaos soak: {len(cells)} cells, "
          f"{total_faults} faults recovered, "
          f"{total_mismatches} serial/pooled grid mismatches")
    if total_mismatches:
        print("FAIL: pooled grid rows diverged from serial under chaos")
        return 1
    if total_faults == 0:
        print("FAIL: chaos never bit — injection sites or the plan "
              "are broken")
        return 1
    silent_kinds = sorted(
        {kind for _, kind in MATRIX}
        - {cell["kind"] for cell in cells if cell["fault_total"]})
    if silent_kinds:
        print(f"FAIL: fault kind(s) never fired: {silent_kinds} — "
              "raise KIND_PROBABILITY or rounds")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
