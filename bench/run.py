"""The repository benchmark.

    python3 bench/run.py --seed 0                  # all workloads, plain
    python3 bench/run.py --trace --seed 0          # plain + traced runs
    python3 bench/run.py --workload serve-scan --seed 3 --seconds 10 \\
        --trace 0                                  # one workload

Each workload runs in a fresh process with a hermetic environment (no
REPRO_TRACE / REPRO_CHAOS / REPRO_PARALLEL_* / REPRO_BREAKER_*, a fresh
REPRO_KERNEL_CACHE).  Every output is checked against an independent
reference (bench/reference.py); any mismatch makes the run exit 1.

A plain run prints every end-to-end metric of BENCHMARK.json; a traced
run (``--trace``) also runs the workload traced, prints the per-layer
metrics, the stage tables and the tracing overhead (traced minus plain
end-to-end metrics).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE``
appends each workload's full result record (metrics, environment) as a
JSON line, the input of ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (BENCH, CACHE, OUT, ROOT, SRC, WORK, format_tail,
                    hermetic_env, load_spec, require_source, units)

#: set-ups per plain run; ``setup_s`` is their median
SETUPS = 3
#: the measured window of a smoke run (seconds)
SMOKE_SECONDS = 1.0
CHILD_TIMEOUT_S = 175.0


def environment(args) -> Dict[str, object]:
    """What a result depends on besides the code's behaviour."""
    import numpy

    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None
    except (OSError, ValueError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"cpus": os.cpu_count(), "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke,
            "setups": args.setups}


def run_child(name: str, args, trace: bool, reference: Path) -> dict:
    """One workload in a fresh process; returns its result record."""
    work = WORK / f"{name}-{os.getpid()}-{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(trace)),
            "--setups", str(1 if trace else args.setups),
            "--reference", str(reference), "--work", str(work),
            "--out", str(OUT)]
    if args.smoke:
        argv.append("--smoke")
    # Its own session, so that whatever the workload starts (the
    # server) can be stopped with it.
    child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=hermetic_env(TMPDIR=str(work)),
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {CHILD_TIMEOUT_S:g} s\n"
    finally:
        stop_group(child)
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        raise SystemExit(f"bench: workload {name} failed "
                         f"(exit {child.returncode})")
    return json.loads(lines[-1])


def stop_group(child: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait until
    every member has exited."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def with_units(values: Dict[str, float], catalogue: Dict[str, str],
               fill: bool) -> Dict[str, Dict[str, object]]:
    """Attach units from BENCHMARK.json; names it does not list are an
    error.  With ``fill``, listed metrics a workload does not produce
    (layers not on its path) read 0."""
    unknown = sorted(set(values) - set(catalogue))
    missing = sorted(set(catalogue) - set(values))
    if unknown or (missing and not fill):
        raise SystemExit(f"bench: metric names out of step with "
                         f"BENCHMARK.json: unknown {unknown}, "
                         f"missing {missing}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in catalogue.items()}


def format_metrics(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    return [f"  {name:<36} {row['value']:.6g} {row['unit']}"
            for name, row in metrics.items()]


def run_workload(name: str, args, spec, record_out: Optional[Path]) -> dict:
    import reference
    import workloads

    workload = workloads.build(name, args.seed, args.smoke)
    ref = reference.ensure(
        reference.cache_path(CACHE, name, args.seed, args.smoke),
        workload.tenants)
    plain = run_child(name, args, False, ref)
    e2e = with_units(plain["e2e"], units(spec, False), fill=False)
    runs = [plain]
    print(f"{name}: seed={args.seed} seconds={args.seconds:g} "
          f"attempted={plain['attempted']} failed={plain['failed']} "
          f"latency {format_tail(plain['tail'])} (unbounded)")
    print("\n".join(format_metrics(e2e)))
    metrics = e2e
    if args.trace:
        traced = run_child(name, args, True, ref)
        runs.append(traced)
        base = plain["e2e"]["latency_p50_s"]
        traced["layers"]["obs.tracing_overhead_ratio"] = (
            traced["e2e"]["latency_p50_s"] / base - 1 if base else 0.0)
        metrics = with_units(traced["layers"], units(spec, True), fill=True)
        print(f"{name} traced: latency {format_tail(traced['tail'])}")
        print("\n".join(traced["lines"]))
        print("  tracing overhead (traced minus plain):")
        for key, value in traced["e2e"].items():
            print(f"    {key:<34} {value - plain['e2e'][key]:+.6g} "
                  f"{e2e[key]['unit']}")
        print("\n".join(format_metrics(metrics)))
    mismatches = [m for run in runs for m in run["mismatches"]]
    for mismatch in mismatches[:20]:
        print(f"  MISMATCH {mismatch}")
    result = {"workload": name, "correct": not mismatches,
              "attempted": runs[-1]["attempted"],
              "failed": runs[-1]["failed"], "metrics": metrics,
              "e2e": plain["e2e"],
              "tail": plain["tail"], "layers": runs[-1].get("layers"),
              "env": environment(args)}
    if record_out is not None:
        record_out.parent.mkdir(parents=True, exist_ok=True)
        with record_out.open("a") as handle:
            handle.write(json.dumps(result) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    # Part of the interface BENCHMARK.json's ``command`` is invoked with
    # (--workload, --seed, --seconds, --trace), always at run_seconds.
    # compare.py refuses to compare records whose windows differ.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"small inputs, one set-up, a "
                             f"{SMOKE_SECONDS:g} s window")
    parser.add_argument("--out", type=Path, default=None,
                        help="append result records (JSON lines) here")
    args = parser.parse_args(argv)
    require_source()
    import workloads

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    args.setups = 1 if args.smoke else SETUPS
    names = args.workload or list(workloads.NAMES)
    for name in names:
        if name not in workloads.NAMES:
            parser.error(f"unknown workload {name!r}; "
                         f"expected one of {workloads.NAMES}")

    begin = time.perf_counter()
    results = [run_workload(name, args, spec, args.out) for name in names]
    print(f"total {time.perf_counter() - begin:.1f} s")
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": results[0]["metrics"] if len(results) == 1
               else {r["workload"]: r["metrics"] for r in results}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
