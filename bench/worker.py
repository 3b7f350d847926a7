"""Run one workload in this (fresh) process and print its result record
as the last line of standard output.  ``bench/run.py`` starts it with a
hermetic environment after caching the workload's reference results;
it is not meant to be run by hand."""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

from common import require_source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    require_source()

    import repro.obs as obs
    import reference
    import workloads

    workload = workloads.build(args.workload, args.seed, args.smoke)
    expected = reference.load(args.reference)
    if args.trace:
        obs.start_tracing()
    common = dict(seconds=args.seconds, trace=bool(args.trace),
                  setups=args.setups, work=args.work, out=args.out,
                  seed=args.seed)
    if args.workload in ("bulk-snort", "ruleset-1k"):
        import inproc

        record = inproc.run(workload, expected, **common)
    else:
        import served

        record = asyncio.run(served.run(workload, expected, **common))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
