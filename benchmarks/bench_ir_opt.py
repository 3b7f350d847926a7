"""IR pass-pipeline benchmark: executed ops and wall time, opt 0/1/2.

Not a paper experiment — this audits the reproduction's own optimizer.
Each workload's rule set is compiled at every optimization level and
run over the same input; the levels must be bit-identical (asserted on
every cell), level 2 must never execute *more* word ops than level 0,
and across the workload suite the full pipeline must remove at least
10% of executed ops.  Word ops are counted on the simulate backend,
the one that runs the pass pipeline.  Wall time is measured on the
compiled backend, which runs no pipeline: its column compares raw
lowering (level 0) with value-numbered lowering (levels 1 and 2 build
the same compiled engine), where fewer instructions mean fewer int
operations per kernel call.

Results land in ``BENCH_ir_opt.json`` with per-pass rewrite/removal
deltas (from ``BitGenEngine.optimization_stats``) so a regression in
any single pass is visible, not just the total.

Runs standalone (``python benchmarks/bench_ir_opt.py [--quick]``, the
CI smoke mode) or under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _timing import best_of
from repro.core.engine import BitGenEngine
from repro.parallel.config import ScanConfig
from repro.workloads.apps import app_by_name

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ir_opt.json"

FULL_APPS = ("Snort", "ClamAV", "Bro217", "Dotstar", "Ranges1", "Yara")
QUICK_APPS = ("Snort", "Bro217")

LEVELS = (0, 1, 2)

#: acceptance floor: the pipeline must remove this fraction of the
#: suite's executed word ops (ISSUE 4 asks for >= 10%)
MIN_TOTAL_REDUCTION = 0.10


def compile_at(nodes, level: int, backend: str) -> BitGenEngine:
    return BitGenEngine._compile_config(
        nodes, ScanConfig(backend=backend, cta_count=4,
                          loop_fallback=True, opt_level=level))


def measure_app(app_name: str, scale: float, input_bytes: int,
                repeat: int) -> dict:
    workload = app_by_name(app_name).build(
        scale=scale, seed=0, input_bytes=int(input_bytes / scale))
    row = {"app": app_name, "patterns": len(workload.patterns),
           "input_bytes": len(workload.data), "levels": {}}
    reference = None
    for level in LEVELS:
        engine = compile_at(workload.nodes, level, "simulate")
        result = engine.match(workload.data)
        if reference is None:
            reference = result.ends
        else:
            assert result.ends == reference, \
                f"{app_name}: opt_level={level} changed matches"
        stats = engine.optimization_stats()
        compiled = compile_at(workload.nodes, level, "compiled")
        compiled.match(workload.data)        # warm: codegen + cache
        seconds, _ = best_of(lambda: compiled.match(workload.data), repeat)
        row["levels"][str(level)] = {
            "static_instrs": engine.program_stats()["instrs"],
            "executed_word_ops": result.metrics.thread_word_ops,
            "instrs_removed": stats["ops_removed"],
            "passes": stats["passes"],
            "compiled_seconds": seconds,
        }
    at0 = row["levels"]["0"]
    at2 = row["levels"]["2"]
    row["executed_op_reduction"] = (
        1.0 - at2["executed_word_ops"] / max(1, at0["executed_word_ops"]))
    row["compiled_speedup"] = (at0["compiled_seconds"]
                               / max(at2["compiled_seconds"], 1e-12))
    return row


def run(quick: bool) -> dict:
    apps = QUICK_APPS if quick else FULL_APPS
    scale = 0.02
    input_bytes = 16384 if quick else 65536
    repeat = 3 if quick else 5
    rows = [measure_app(app, scale, input_bytes, repeat)
            for app in apps]

    executed = {level: sum(r["levels"][str(level)]["executed_word_ops"]
                           for r in rows) for level in LEVELS}
    reduction = 1.0 - executed[2] / max(1, executed[0])
    payload = {
        "benchmark": "IR pass pipeline (copy propagation + CSE + "
                     "algebraic + DCE + prologue factoring) vs "
                     "unoptimized lowering",
        "mode": "quick" if quick else "full",
        "apps": list(apps),
        "rows": rows,
        "total_executed_word_ops": {str(k): v
                                    for k, v in executed.items()},
        "total_reduction_opt2_vs_opt0": reduction,
    }

    print(f"IR optimization benchmark ({payload['mode']})")
    for row in rows:
        at0, at2 = row["levels"]["0"], row["levels"]["2"]
        print(f"  {row['app']:<10} ops {at0['executed_word_ops']:>9} -> "
              f"{at2['executed_word_ops']:>9} "
              f"(-{row['executed_op_reduction']:.1%})  "
              f"compiled {at0['compiled_seconds']*1e3:7.2f}ms -> "
              f"{at2['compiled_seconds']*1e3:7.2f}ms "
              f"({row['compiled_speedup']:.2f}x)")
    print(f"  total: {executed[0]} -> {executed[2]} executed word ops "
          f"(-{reduction:.1%})")

    # Hard floors: the pipeline must never pessimise a workload, and
    # must clear the 10% suite-wide reduction the issue asks for.
    for row in rows:
        levels = row["levels"]
        assert levels["2"]["executed_word_ops"] \
            <= levels["0"]["executed_word_ops"], \
            f"{row['app']}: opt_level=2 executed MORE ops than opt_level=0"
        assert levels["1"]["executed_word_ops"] \
            <= levels["0"]["executed_word_ops"]
    assert reduction >= MIN_TOTAL_REDUCTION, \
        f"pipeline removed only {reduction:.1%} of executed ops " \
        f"(floor {MIN_TOTAL_REDUCTION:.0%})"
    # Fewer array passes must show up as wall time somewhere; exact
    # ratios are machine noise, so only the existence of a win is
    # asserted (the JSON records every number).
    assert any(row["compiled_speedup"] > 1.0 for row in rows), \
        "no workload showed a compiled wall-time win at opt_level=2"

    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_ir_opt_quick():
    run(quick=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs / fewer apps (CI smoke mode)")
    options = parser.parse_args(argv)
    run(quick=options.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
