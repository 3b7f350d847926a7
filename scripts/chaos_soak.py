"""Chaos soak: randomized fault injection over the scan pipeline.

The CI ``chaos-soak`` job's entry point.  Runs the parallel scan
surfaces (stream shards, group shards, streaming sessions) repeatedly
under a **seeded** :class:`ChaosPlan` for every fault kind crossed
with both executors, and fails loudly if any of the resilience
contracts break:

* results must stay **bit-identical to serial** through every
  recovery path (degrade, retry, deadline, breaker);
* ``on_fault="fail"`` must raise :class:`ScanAbortedError`;
* ``on_fault="retry"`` must recover a transient fault *without*
  touching the inline serial fallback;
* a deadline scan must return within the deadline plus bounded
  recovery slack.

The matrix skips ``thread x exit`` on purpose: an ``exit`` injection
in a thread worker is ``os._exit`` of the harness itself.

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
from repro.core.engine import BitGenEngine  # noqa: E402
from repro.core.streaming import StreamingMatcher  # noqa: E402
from repro.gpu.machine import CTAGeometry  # noqa: E402
from repro.parallel.config import ScanConfig  # noqa: E402
from repro.parallel import pool as pool_mod  # noqa: E402
from repro.parallel.pool import shutdown  # noqa: E402
from repro.parallel.scan import ParallelScanner, parallel_sessions  # noqa: E402
from repro.resilience import chaos  # noqa: E402
from repro.resilience.chaos import ChaosPlan, ChaosRule  # noqa: E402
from repro.resilience.policy import ScanAbortedError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]", "virus[0-9]"]
DATA = b"abcbcd cat 42 virus7 dog abcd " * 24
STREAMS = [DATA[:60], DATA[:150], DATA[:60], DATA[:240], DATA[:150]]
SESSIONS = [
    [b"xx virus1 y", b"y virus2 abcb", b"cd dog virus3"],
    [b"hot dog abc", b"bcd cat 42 ", b"abcd" * 6],
    [b"quiet chunk", b"still quiet", b"virus9 at last"],
]

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


def sig(result):
    return {k: sorted(v) for k, v in result.ends.items()}


def build_engine():
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, loop_fallback=True,
                                    backend="compiled"))


def cell_config(executor: str, kind: str) -> ScanConfig:
    return ScanConfig(
        geometry=TINY, loop_fallback=True, backend="compiled",
        workers=2, executor=executor, min_parallel_bytes=0,
        worker_timeout=0.25 if kind == "timeout" else None)


def chaos_spec(kind: str, seed: int) -> str:
    site = "pool.acquire" if kind == "pool" else "worker.*"
    probability = KIND_PROBABILITY.get(kind, INJECT_PROBABILITY)
    return ChaosPlan(seed=seed, rules=(
        ChaosRule(site=site, kind=kind,
                  probability=probability),)).to_spec()


def soak_cell(engine, baselines, executor: str, kind: str, seed: int,
              rounds: int) -> dict:
    """One matrix cell: `rounds` passes of every scan surface under
    env-armed chaos (env so process workers inherit it)."""
    serial_streams, serial_match, serial_sessions = baselines
    os.environ[chaos.CHAOS_ENV] = chaos_spec(kind, seed)
    os.environ[chaos.SLEEP_ENV] = "0.5"
    chaos.reset()
    faults = {"stream": 0, "group": 0, "session": 0}
    mismatches = 0
    config = cell_config(executor, kind)
    try:
        for _ in range(rounds):
            scanner = ParallelScanner(engine, config)
            results = scanner.match_many(STREAMS)
            if [sig(r) for r in results] != serial_streams:
                mismatches += 1
            faults["stream"] += len(scanner.faults)

            scanner = ParallelScanner(engine, config)
            merged = scanner.match(DATA)
            if sig(merged) != serial_match:
                mismatches += 1
            faults["group"] += len(scanner.faults)

            reports = parallel_sessions(engine, SESSIONS, config)
            if [dict(r.items()) for r in reports] != serial_sessions:
                mismatches += 1
            faults["session"] += len(engine.last_scan_faults)
    finally:
        os.environ.pop(chaos.CHAOS_ENV, None)
        os.environ.pop(chaos.SLEEP_ENV, None)
        chaos.reset()
        # Cells are independent: a breaker opened by this cell's pool
        # faults must not push the next cell (or the directed policy
        # checks) onto the inline path.
        pool_mod.breaker().reset()
    return {"executor": executor, "kind": kind, "seed": seed,
            "rounds": rounds, "faults": faults,
            "fault_total": sum(faults.values()),
            "mismatches": mismatches}


def check_fail_policy(engine) -> None:
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    try:
        scanner = ParallelScanner(engine, cell_config("thread", "x")
                                  .replace(on_fault="fail"))
        try:
            scanner.match_many(STREAMS)
        except ScanAbortedError as exc:
            assert exc.fault.fallback == "abort", exc.fault
        else:
            raise AssertionError(
                "on_fault='fail' swallowed an injected fault")
    finally:
        chaos.reset()
        pool_mod.breaker().reset()


def check_retry_policy(engine, serial_streams) -> None:
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception", max_count=1),)))
    try:
        scanner = ParallelScanner(
            engine, cell_config("thread", "x").replace(
                on_fault="retry", max_retries=2, retry_backoff=0.01))
        results = scanner.match_many(STREAMS)
        assert [sig(r) for r in results] == serial_streams
        assert scanner.faults, "transient fault never fired"
        for fault in scanner.faults:
            assert fault.fallback == "retry", \
                f"retry policy fell back serially: {fault.summary()}"
    finally:
        chaos.reset()
        pool_mod.breaker().reset()


def check_deadline(engine, serial_streams) -> None:
    os.environ[chaos.SLEEP_ENV] = "2.0"
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout"),)))
    try:
        scanner = ParallelScanner(
            engine, cell_config("thread", "x").replace(deadline_s=0.4))
        started = time.monotonic()
        results = scanner.match_many(STREAMS)
        elapsed = time.monotonic() - started
        assert [sig(r) for r in results] == serial_streams
        assert {f.kind for f in scanner.faults} == {"deadline"}, \
            scanner.faults
        # deadline + inline recovery of the stragglers, nowhere near
        # the 2 s the workers sleep
        assert elapsed < 1.8, f"deadline scan took {elapsed:.2f}s"
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
                        help="scan rounds per matrix cell")
    parser.add_argument("--seed", type=int, default=20260807,
                        help="base chaos seed (cell i uses seed+i)")
    options = parser.parse_args(argv)

    engine = build_engine()
    serial_streams = [sig(r) for r in engine.match_many(STREAMS)]
    serial_match = sig(engine.match(DATA))
    serial_session_reports = []
    for chunks in SESSIONS:
        matcher = StreamingMatcher(engine)
        serial_session_reports.append(
            dict(matcher.feed_all(chunks).items()))
    baselines = (serial_streams, serial_match, serial_session_reports)

    cells = []
    for index, (executor, kind) in enumerate(MATRIX):
        cell = soak_cell(engine, baselines, executor, kind,
                         options.seed + index, options.rounds)
        cells.append(cell)
        print(f"  {executor:<8} {kind:<10} rounds={cell['rounds']} "
              f"faults={cell['fault_total']:<4} "
              f"mismatches={cell['mismatches']}")

    print("  directed policy checks: fail / retry / deadline")
    check_fail_policy(engine)
    check_retry_policy(engine, serial_streams)
    check_deadline(engine, serial_streams)
    shutdown()

    total_faults = sum(cell["fault_total"] for cell in cells)
    total_mismatches = sum(cell["mismatches"] for cell in cells)
    payload = {
        "benchmark": "chaos soak: seeded fault injection over the "
                     "parallel scan pipeline",
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
          f"{total_mismatches} serial/parallel mismatches")
    if total_mismatches:
        print("FAIL: parallel results diverged from serial under chaos")
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
