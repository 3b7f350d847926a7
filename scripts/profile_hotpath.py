#!/usr/bin/env python3
"""Profile one Table 2 harness cell under cProfile.

Shows where one (app, scheme, backend) cell actually spends its time —
the evidence behind the compiled backend's design (the simulate path
burns its cycles in per-window instruction dispatch; the compiled path
in its int kernels).

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py \
        [--app Snort] [--backend simulate|compiled] \
        [--scheme ZBS] [--top 20]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", default="Snort",
                        help="workload name (default: Snort)")
    parser.add_argument("--backend", default="simulate",
                        choices=("simulate", "compiled"))
    parser.add_argument("--scheme", default="ZBS",
                        help="execution scheme (Base/DTM-/DTM/SR/ZBS)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative-time report")
    parser.add_argument("--scale", type=float, default=0.02)
    args = parser.parse_args(argv)

    from repro.core.schemes import Scheme
    from repro.perf.harness import Harness
    from repro.parallel.config import ScanConfig

    scheme = next((s for s in Scheme if s.value.lower()
                   == args.scheme.lower()), None)
    if scheme is None:
        parser.error(f"unknown scheme {args.scheme!r}")

    harness = Harness(scale=args.scale,
                      config=ScanConfig(backend=args.backend))
    workload = harness.workload(args.app)
    engine = harness.bitgen_engine(workload, scheme=scheme)
    print(f"profiling {args.app} / {scheme.value} / {args.backend} "
          f"({len(workload.data)} bytes, {len(engine.groups)} CTAs)",
          file=sys.stderr)

    profiler = cProfile.Profile()
    profiler.enable()
    result = engine.match(workload.data)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"matches: {result.match_count()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
