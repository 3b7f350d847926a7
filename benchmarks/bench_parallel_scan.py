"""Sharded parallel scan throughput: serial vs 2 vs 4 workers.

Not a paper experiment — this measures the reproduction's own dispatch
layer.  A multi-stream scan (the DPI deployment shape: many packets,
one compiled engine) runs through ``BitGenEngine.match_many`` serially
and through the sharded dispatcher at 2 and 4 workers, and every
parallel run is checked bit-identical to serial before it is timed.
Results land in ``BENCH_parallel.json`` as streams/sec and MB/s per
worker count.

Two input shapes are measured:

* **large** — 24 streams of 16-64KB (≈1MB total), above the
  ``min_parallel_bytes`` threshold, so workers genuinely dispatch on
  a persistent warm pool, each shard carrying its streams' bytes;
* **small** — the original 48 tiny streams (≈60KB total) that an
  earlier revision showed running 2.4-2.7x *slower* through process
  workers than serially.  With the threshold in place the same config
  now falls back to serial dispatch (``last_dispatch`` records
  ``serial-small-input``), so the pathological rows collapse to ≈1x.

Speedup honesty: process pools cannot beat serial on a single-CPU
container.  Rather than silently blessing such a run, the payload
carries ``flags: ["single-cpu"]`` whenever the machine has fewer than
two usable cores, and the scaling assertions arm only when the cores
exist (``parallel >= serial`` at 2 workers needs >= 2 CPUs; the 2x
floor at 4 workers needs >= 4).  Every row records the CPU count, the
process start method, and whether its pool was warm or cold, so a
regression report can always be read against the machine it ran on.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.engine import BitGenEngine
from repro.parallel import shutdown
from repro.parallel.config import ScanConfig

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

PATTERNS = ["a(bc)*d", "colou?r", "cat|dog", "[0-9][0-9]", "xy+z",
            "virus[0-9]+", "GET /[a-z]+", "foo", "bar", "qux"]

WORKER_COUNTS = (1, 2, 4)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_streams(count: int, lengths) -> list:
    base = (b"abcbcd colour cat 42 xyyz virus7 GET /index "
            b"foo bar qux color abcd " * 1200)
    # Mixed lengths so the stream shard planner has real balancing work.
    return [base[:lengths[index % len(lengths)]]
            for index in range(count)]


def compile_engine(workers: int) -> BitGenEngine:
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(backend="compiled", cta_count=4,
                                    loop_fallback=True, workers=workers,
                                    executor="process"))


def best_of(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return best, result


def measure(streams, repeat=3):
    """Serial vs workers over one stream set; asserts bit-identity."""
    total_bytes = sum(len(s) for s in streams)
    cpus = available_cpus()
    reference = None
    rows = []
    for workers in WORKER_COUNTS:
        engine = compile_engine(workers)
        config = engine.config
        engine.match_many(streams)       # warm: compile + pool + cache
        seconds, results = best_of(lambda: engine.match_many(streams),
                                   repeat)
        if reference is None:
            reference = results
        else:
            for left, right in zip(results, reference):
                assert left.ends == right.ends
                assert left.metrics == right.metrics
        rows.append({
            "workers": workers,
            "dispatch": engine.last_dispatch,
            # "warm" after the warm-up dispatch above parked a
            # persistent pool; "cold" would mean the pool was rebuilt
            # (or discarded) between runs — a perf bug worth seeing.
            "pool": getattr(engine, "last_pool_state", "none"),
            "cpus": cpus,
            "start_method": config.resolved_start_method(),
            "seconds": seconds,
            "streams_per_sec": len(streams) / seconds,
            "mbps": total_bytes / seconds / 1e6,
            "faults": len(engine.last_scan_faults),
        })
    return total_bytes, rows


def run_benchmark() -> dict:
    large = build_streams(24, [16384, 32768, 49152, 65536])
    small = build_streams(48, [512, 1024, 1536, 2048])

    large_bytes, large_rows = measure(large)
    small_bytes, small_rows = measure(small)
    cpus = available_cpus()

    def speedups(rows):
        serial = rows[0]["streams_per_sec"]
        return {str(r["workers"]): r["streams_per_sec"] / serial
                for r in rows}

    flags = []
    if cpus < 2:
        # Do not let a single-CPU container bless a speedup claim: the
        # numbers below are recorded, not meaningful as scaling.
        flags.append("single-cpu")

    payload = {
        "benchmark": "sharded parallel scan (match_many, compiled)",
        "patterns": len(PATTERNS),
        "cpus": cpus,
        "start_method": ScanConfig().resolved_start_method(),
        "flags": flags,
        "min_parallel_bytes": ScanConfig().min_parallel_bytes,
        "large": {
            "streams": len(large),
            "input_bytes": large_bytes,
            "rows": large_rows,
            "speedup_vs_serial": speedups(large_rows),
        },
        "small_input_fallback": {
            "streams": len(small),
            "input_bytes": small_bytes,
            "rows": small_rows,
            "speedup_vs_serial": speedups(small_rows),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    if flags:
        print(f"WARNING: flags={flags} — parallel speedups cannot be "
              f"demonstrated on this machine (cpus={cpus}); rows are "
              f"recorded for the artefact, not asserted as scaling.")
    for title, nbytes, rows in (("large", large_bytes, large_rows),
                                ("small", small_bytes, small_rows)):
        print(f"{title}: bytes={nbytes} cpus={cpus}")
        for row in rows:
            print(f"  workers={row['workers']} "
                  f"[{row['dispatch']}/{row['pool']}"
                  f"/{row['start_method']}]: "
                  f"{row['streams_per_sec']:9.1f} streams/s "
                  f"{row['mbps']:7.2f} MB/s  faults={row['faults']}")
    return payload


def check_assertions(payload: dict) -> None:
    cpus = payload["cpus"]
    large_rows = payload["large"]["rows"]
    small_rows = payload["small_input_fallback"]["rows"]

    # The large set is above the threshold, so workers really dispatch,
    # and the persistent pool parked by the warm-up run must be reused.
    for row in large_rows[1:]:
        assert row["dispatch"] == "parallel"
        assert row["pool"] == "warm", \
            f"workers={row['workers']} re-built its pool mid-benchmark"
    # The small set is below it: the engine must refuse the pool (the
    # 2.4-2.7x slowdown the previous revision recorded) and fall back.
    for row in small_rows[1:]:
        assert row["dispatch"] == "serial-small-input"
    # Fallback rows run the serial path, so they cannot be pathological:
    # allow scheduling noise but nothing near the old 2.4x regression.
    small_serial = small_rows[0]["streams_per_sec"]
    for row in small_rows[1:]:
        assert row["streams_per_sec"] >= 0.5 * small_serial

    # Scaling only exists where cores do; on a single-CPU container the
    # dispatcher must merely not lose correctness (bit-identity was
    # asserted during measurement) and the run is flagged, not blessed.
    by_workers = {r["workers"]: r["streams_per_sec"]
                  for r in large_rows}
    if cpus >= 2:
        assert by_workers[2] >= by_workers[1], \
            (f"parallel (2 workers) slower than serial on a "
             f"{cpus}-CPU machine: {by_workers[2]:.1f} vs "
             f"{by_workers[1]:.1f} streams/s")
    else:
        assert payload["flags"] == ["single-cpu"]
    if cpus >= 4:
        assert by_workers[4] >= 2.0 * by_workers[1]


def test_parallel_scan_throughput():
    payload = run_benchmark()
    check_assertions(payload)


if __name__ == "__main__":
    try:
        check_assertions(run_benchmark())
    finally:
        shutdown()
    print(f"wrote {OUTPUT}")
