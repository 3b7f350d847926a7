"""Sharded parallel scanning: one engine, many streams, a worker pool.

Demonstrates the ``repro.parallel`` dispatch layer: a ``ScanConfig``
with ``workers > 1`` fans ``match_many`` across a pool (processes by
default; threads here so the demo is cheap everywhere), results stay
bit-identical to serial execution — match positions *and* aggregated
kernel metrics — and a crashing worker degrades to an in-process
serial re-run recorded in ``engine.last_scan_faults`` instead of
failing the scan.

Run:  python examples/parallel_scan.py
"""

import os

import repro.parallel
from repro import BitGenEngine, ScanConfig
from repro.resilience import CHAOS_ENV

PATTERNS = [
    "GET /[a-z]+",           # HTTP requests
    "virus[0-9]+",           # AV-style signature family
    "a(bc)*d",               # the paper's Listing 3 example
    "[0-9][0-9]:[0-9][0-9]", # timestamps
]

BASE = (b"GET /index 09:30 virus7 abcbcd ... GET /login 10:45 "
        b"virus12 abcd " * 60)

#: a few packet lengths, like a real capture
STREAMS = [BASE[:size] for size in (512, 1024, 2048, 512, 1024, 4096,
                                    2048, 512)]


def main() -> None:
    serial = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(backend="compiled"))
    # min_parallel_bytes=0: this demo's streams are deliberately tiny,
    # and the point is to show the pool — a real deployment would let
    # the threshold route small scans straight to serial.
    parallel = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(backend="compiled", workers=4,
                                    executor="thread",
                                    min_parallel_bytes=0))

    serial_results = serial.match_many(STREAMS)
    parallel_results = parallel.match_many(STREAMS)

    print(f"{len(PATTERNS)} patterns over {len(STREAMS)} streams "
          f"({sum(len(s) for s in STREAMS)} bytes), 4 workers\n")
    for index, (left, right) in enumerate(zip(parallel_results,
                                              serial_results)):
        assert left.ends == right.ends and left.metrics == right.metrics
        print(f"stream {index}: {left.match_count():4d} matches "
              f"({len(STREAMS[index])} bytes) — identical to serial")
    print(f"\nfaults: {parallel.last_scan_faults}")

    # Graceful degradation: arm fault injection so every worker task
    # fails, and the scan still answers — serially, with the
    # incidents on the record.
    os.environ[CHAOS_ENV] = "worker.*:exception"
    try:
        degraded = parallel.match_many(STREAMS)
    finally:
        del os.environ[CHAOS_ENV]
    assert all(l.ends == r.ends
               for l, r in zip(degraded, serial_results))
    print(f"\nwith every worker crashing: results still identical; "
          f"{len(parallel.last_scan_faults)} shard fault(s) recorded:")
    for fault in parallel.last_scan_faults:
        print(f"  shard {fault.shard}: {fault.kind} -> "
              f"re-ran via {fault.fallback}")

    # Pools persist across scans (warm reuse); atexit would release
    # them anyway, but long-lived processes should do it explicitly.
    repro.parallel.shutdown()


if __name__ == "__main__":
    main()
