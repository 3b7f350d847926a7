"""Rule-set scale benchmark: compile time, incremental recompilation,
and prefiltered scan throughput at 100 / 1k / 10k patterns.

Not a paper experiment — this audits the reproduction's rule-set-scale
machinery (ISSUE 9):

* **Cold compile** at each set size (``grouping="fingerprint"``, the
  scale-oriented strategy).
* **Incremental recompile** of a one-pattern diff against the same set
  (:mod:`repro.core.incremental`); must be >= 10x faster than cold at
  1k patterns, since only the touched groups recompile.
* **Scan throughput** over literal-sparse input with the prefilter
  gate off vs on (identical match sets, asserted); the gated scan must
  be >= 2x faster at 1k patterns, because every gated bucket's
  required literals are absent and the kernels never dispatch.

Results land in ``BENCH_ruleset_scale.json``.  Runs standalone
(``python benchmarks/bench_ruleset_scale.py [--quick]``, the CI smoke
mode; ``--patterns-file FILE`` benchmarks a real rule set instead of
the synthetic one) or under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _timing import best_of
from repro.api import load_patterns_file
from repro.core.engine import BitGenEngine
from repro.core.incremental import update_engine
from repro.parallel.config import ScanConfig

OUTPUT = Path(__file__).resolve().parent.parent \
    / "BENCH_ruleset_scale.json"

FULL_SIZES = (100, 1000, 10000)
QUICK_SIZES = (100, 1000)

#: acceptance floors (ISSUE 9), checked at the 1k-pattern cell
MIN_PREFILTER_SPEEDUP = 2.0
MIN_INCREMENTAL_SPEEDUP = 10.0

#: literal-sparse scan input: plain prose, none of the rule literals
SPARSE_INPUT = (b"the quick brown fox jumps over the lazy dog while "
                b"0123456789 unrelated bytes stream past the matcher "
                ) * 160                                    # ~16 KiB


def synthetic_rules(count: int) -> list:
    """A rule set shaped like real signature sets: mostly patterns
    anchored on a distinctive literal, a few factor-free ones that
    keep their buckets always-on."""
    rules = []
    for index in range(count):
        if index % 50 == 49:
            rules.append(f"[a-y][a-y0-9]*z{index % 7}q")
        else:
            rules.append(f"sig{index:05d}[0-9]+x")
    return rules


def measure_set(rules: list, repeat: int) -> dict:
    config = ScanConfig(backend="compiled", grouping="fingerprint",
                        loop_fallback=True)
    begin = time.perf_counter()
    engine = BitGenEngine.compile(rules, config=config)
    cold_seconds = time.perf_counter() - begin

    # -- incremental: one-pattern diff against the compiled set -------
    diff = rules + ["added[0-9]+q"]
    begin = time.perf_counter()
    updated, update = update_engine(engine, diff)
    update_seconds = time.perf_counter() - begin

    # -- scan: literal-sparse input, gate off vs on -------------------
    gated = config.replace(prefilter=True)
    engine.match(SPARSE_INPUT)                   # warm kernel caches
    plain_seconds, _ = best_of(
        lambda: engine.match(SPARSE_INPUT), repeat)
    prefiltered_seconds, _ = best_of(
        lambda: engine.match(SPARSE_INPUT, config=gated), repeat)
    plain = engine.match(SPARSE_INPUT)
    prefiltered = engine.match(SPARSE_INPUT, config=gated)
    assert prefiltered.ends == plain.ends, \
        f"prefilter changed matches at {len(rules)} patterns"
    report = engine.last_prefilter

    row = {
        "patterns": len(rules),
        "groups": len(engine.groups),
        "compile_seconds_cold": cold_seconds,
        "incremental": {
            "seconds": update_seconds,
            "reused": update.reused,
            "recompiled": update.recompiled,
            "speedup_vs_cold": cold_seconds / max(update_seconds, 1e-9),
        },
        "scan": {
            "input_bytes": len(SPARSE_INPUT),
            "unfiltered_seconds": plain_seconds,
            "prefiltered_seconds": prefiltered_seconds,
            "speedup": plain_seconds / max(prefiltered_seconds, 1e-9),
            "unfiltered_mbps": len(SPARSE_INPUT) / plain_seconds / 1e6,
            "prefiltered_mbps": len(SPARSE_INPUT)
            / prefiltered_seconds / 1e6,
            "prefilter_report": report.to_dict(),
        },
    }
    del updated
    return row


def run(quick: bool, patterns_file: str = None) -> dict:
    repeat = 3 if quick else 5
    if patterns_file:
        rule_sets = [load_patterns_file(patterns_file)]
    else:
        sizes = QUICK_SIZES if quick else FULL_SIZES
        rule_sets = [synthetic_rules(size) for size in sizes]
    rows = [measure_set(rules, repeat) for rules in rule_sets]

    payload = {
        "benchmark": "rule-set scale: cold vs incremental compile, "
                     "prefiltered vs unfiltered scan",
        "mode": "quick" if quick else "full",
        "patterns_file": patterns_file,
        "rows": rows,
    }

    print(f"rule-set scale benchmark ({payload['mode']})")
    for row in rows:
        inc, scan = row["incremental"], row["scan"]
        print(f"  {row['patterns']:>6} patterns  "
              f"cold {row['compile_seconds_cold']:6.2f}s  "
              f"update {inc['seconds']*1e3:8.1f}ms "
              f"({inc['speedup_vs_cold']:6.1f}x, "
              f"{inc['reused']}/{row['groups']} reused)  "
              f"scan {scan['unfiltered_mbps']:7.2f} -> "
              f"{scan['prefiltered_mbps']:8.2f} MB/s "
              f"({scan['speedup']:5.1f}x)")

    if not patterns_file:
        anchor = next(r for r in rows if r["patterns"] == 1000)
        assert anchor["scan"]["speedup"] >= MIN_PREFILTER_SPEEDUP, \
            (f"prefiltered scan only {anchor['scan']['speedup']:.2f}x "
             f"at 1k patterns (floor {MIN_PREFILTER_SPEEDUP}x)")
        assert anchor["incremental"]["speedup_vs_cold"] \
            >= MIN_INCREMENTAL_SPEEDUP, \
            (f"incremental recompile only "
             f"{anchor['incremental']['speedup_vs_cold']:.2f}x "
             f"at 1k patterns (floor {MIN_INCREMENTAL_SPEEDUP}x)")

    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_ruleset_scale_quick():
    run(quick=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="100/1k sizes only (CI smoke mode)")
    parser.add_argument("--patterns-file", default=None, metavar="FILE",
                        help="benchmark this rule set instead of the "
                             "synthetic ones (one pattern per line, "
                             "'#' comments)")
    options = parser.parse_args(argv)
    run(quick=options.quick, patterns_file=options.patterns_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
