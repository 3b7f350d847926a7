"""Compare two sets of benchmark results.

    python3 bench/compare.py A.jsonl B.jsonl

``A`` (the parent, or a baseline) and ``B`` (the change) are files
written by ``bench/run.py --out``, each holding several runs of one
commit with the same settings: every record of both files must share
its window length, smoke mode and seed, or the comparison is refused
(exit 2).  Run the two sides alternately (A, B,
A, B, ...): the i-th runs of A and B form a pair, and alternating keeps
the host's slow spells from landing on one side.  For every workload
and end-to-end metric it prints both sets' median and quartiles and one
verdict:

* ``unresolved`` -- either set's spread (quartile distance over median)
  is wider than the metric's bound, unless every B run beats every A
  run;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better by more than A's spread and B wins
  at least nine tenths of the run pairs;
* ``same`` -- otherwise.

Exits 1 when any metric is worse, 2 when the records are not
comparable, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from common import load_spec


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them)
    and the quartile distance over the median."""
    if len(values) < 2:
        only = values[0]
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    sa, sb = summary(a), summary(b)
    sign = 1.0 if better == "lower" else -1.0
    # positive = B worse than A, as a share of A's median
    worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
    dominates = all(sign * (y - x) < 0 for x in a for y in b)
    if max(sa["spread"], sb["spread"]) > bound and not dominates:
        word = "unresolved"
    elif worse > bound:
        word = "worse"
    elif -worse > sa["spread"] and wins >= 0.9:
        word = "better"
    else:
        word = "same"
    return {"a": sa, "b": sb, "change": worse, "wins": wins,
            "verdict": word}


#: run settings every compared record must share: a shorter window, a
#: smoke run or other inputs change the numbers without any code change
SETTINGS = ("seconds", "smoke", "seed")


def load(path: Path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def settings_mismatch(*sets: Dict[str, List[dict]]) -> List[str]:
    """Descriptions of every setting that is not the same in all
    records of ``sets``; empty when they are comparable."""
    seen: Dict[str, set] = {key: set() for key in SETTINGS}
    for runs in sets:
        for records in runs.values():
            for record in records:
                for key in SETTINGS:
                    seen[key].add(json.dumps(record["env"].get(key)))
    return [f"{key}: {', '.join(sorted(values))}"
            for key, values in seen.items() if len(values) > 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline results (JSONL)")
    parser.add_argument("b", type=Path, help="changed results (JSONL)")
    args = parser.parse_args(argv)
    spec = load_spec()
    set_a, set_b = load(args.a), load(args.b)
    mismatch = settings_mismatch(set_a, set_b)
    if mismatch:
        print(f"compare: the records were run with different settings "
              f"({'; '.join(mismatch)}); rerun both sets alike",
              file=sys.stderr)
        return 2
    any_worse = False
    print(f"{'workload':<13} {'metric':<15} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'worse by':>9} {'bound':>6}  verdict")
    for workload in [w for w in set_a if w in set_b]:
        for row in spec["end_to_end"]:
            name = row["name"]
            a = [run["e2e"][name] for run in set_a[workload]]
            b = [run["e2e"][name] for run in set_b[workload]]
            result = verdict(a, b, row["better"], row["bound"])
            any_worse |= result["verdict"] == "worse"
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                     f"({len(v)} runs)"
                     for s, v in ((result["a"], a), (result["b"], b))]
            print(f"{workload:<13} {name:<15} {cells[0]:<34} {cells[1]:<34} "
                  f"{result['change'] * 100:+8.1f}% {row['bound']:>6.2f}  "
                  f"{result['verdict']}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
