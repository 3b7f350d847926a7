"""Shared helpers of the benchmark: paths, the metric catalogue read from
BENCHMARK.json, quantiles, stage tables and the hermetic environment."""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: reference match results, one file per (workload, seed, size)
CACHE = BENCH / ".cache"
#: working files of one run (kernel caches, access logs); deleted after
WORK = BENCH / ".work"
#: artefacts a run keeps: Chrome traces and result records
OUT = BENCH / "out"

#: environment variables that change what the program under test does;
#: every workload process starts with them cleared
HERMETIC_PREFIXES = ("REPRO_TRACE", "REPRO_CHAOS", "REPRO_PARALLEL_",
                     "REPRO_BREAKER_", "REPRO_KERNEL_CACHE",
                     "REPRO_DISK_CACHE")


def require_source() -> None:
    """Exit 2 (before any output on stdout) when the program's source
    tree is missing: a benchmark checkout without ``src/repro`` has
    nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> Dict[str, object]:
    return json.loads(SPEC_PATH.read_text())


def units(spec: Dict[str, object], trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one mode: every end-to-end metric for a
    plain run, every per-layer metric for a traced one."""
    section = "per_layer" if trace else "end_to_end"
    return {row["name"]: row["unit"] for row in spec[section]}


def hermetic_env(**overrides: str) -> Dict[str, str]:
    """The parent's environment minus every knob of the program under
    test, with ``src`` importable and output unbuffered."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(HERMETIC_PREFIXES)}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update(overrides)
    return env


# -- statistics --------------------------------------------------------------


#: the percentiles a latency tail may be reported at, highest first
TAIL_PERCENTILES = (99, 90, 75)
#: samples that must lie beyond a percentile for it to be reported
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile of one run's samples, interpolated
    linearly between ranks (``statistics.quantiles``' inclusive
    method).  Spreads across runs (``compare.py``) use its default,
    exclusive method instead, the definition BENCHMARK.json's bounds
    are checked with."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND
    samples beyond it, as ``{"samples": n, "p<k>": seconds}``; only the
    sample count when there are too few for any."""
    out: Dict[str, float] = {"samples": len(values)}
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) >= 100 * TAIL_MIN_BEYOND:
            out[f"p{p}"] = percentile(values, p)
            break
    return out


def format_tail(summary: Dict[str, float]) -> str:
    rest = [f"{key}={value:.6g} s" for key, value in summary.items()
            if key != "samples"]
    return (f"n={summary['samples']}"
            + (f" {rest[0]}" if rest else
               f" (too few for p{TAIL_PERCENTILES[-1]})"))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    line = next(l for l in status.splitlines() if l.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def run_record(setup_seconds: Sequence[float], scan_mbps: float,
               latencies: Sequence[float], peak_rss: float, attempted: int,
               failed: int, mismatches: List[str]) -> Dict[str, object]:
    """One workload run's result: the end-to-end metrics (the set
    BENCHMARK.json gates), the unbounded latency tail, and the op
    accounting."""
    return {"attempted": attempted, "failed": failed,
            "mismatches": mismatches,
            "e2e": {"setup_s": median(setup_seconds),
                    "scan_mbps": scan_mbps,
                    "latency_p50_s": median(latencies),
                    "peak_rss_mb": peak_rss},
            "tail": tail(latencies),
            "lines": []}


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._t0
        return False


# -- stage tables ------------------------------------------------------------


def stage_table(total: float, parts: Iterable[Tuple[str, float]],
                residual: str) -> Dict[str, object]:
    """A latency breakdown: measured ``parts`` plus one ``residual``
    stage (total minus the parts).  ``ok`` is false when the measured
    parts overshoot the total by more than 5%, i.e. when the table does
    not add up."""
    rows = list(parts)
    rest = total - sum(value for _, value in rows)
    rows.append((residual, rest))
    return {"total_s": total,
            "rows": [{"stage": name, "seconds": value,
                      "share": value / total if total else 0.0}
                     for name, value in rows],
            "ok": rest >= -0.05 * total}


def format_stage_table(title: str, table: Dict[str, object]) -> List[str]:
    lines = [f"  {title}: total {table['total_s'] * 1e3:.3f} ms"
             f"{'' if table['ok'] else '  (parts exceed total by >5%)'}"]
    for row in table["rows"]:
        lines.append(f"    {row['stage']:<32} {row['seconds'] * 1e3:10.3f} ms"
                     f"  {row['share'] * 100:6.1f}%")
    return lines


def span_seconds(spans: Iterable[Dict[str, object]], name: str,
                 since: float = 0.0) -> List[float]:
    """Durations of every recorded span called ``name`` that started at
    or after epoch second ``since``."""
    return [span["dur"] for span in spans
            if span["name"] == name and span["ts"] >= since]


#: compile-stage spans the program emits -> per-layer metric names
COMPILE_SPANS = {
    "parse": "regex.parse_s",
    "group": "core.grouping.group_s",
    "lower": "ir.lower_s",
    "optimize": "ir.passes.optimize_s",
    "plan_barriers": "core.barriers.plan_s",
    "codegen": "backend.codegen_s",
    "prefilter.build": "core.prefilter.build_s",
}
#: the stages that run inside the ``compile`` span (codegen and the
#: prefilter index are built lazily, on first scans)
COMPILE_CHILDREN = ("parse", "group", "lower", "optimize", "plan_barriers")


def compile_layers(spans: List[Dict[str, object]],
                   engines: Sequence[object]) -> Dict[str, float]:
    """Compile-stage seconds summed over ``spans``, plus the static
    size of the compiled ``engines``.  ``core.engine.compile_other_s``
    is the part of the ``compile`` spans no child span covers: shift
    rebalancing and guard insertion, which have no span of their own."""
    layers = {metric: sum(span_seconds(spans, name))
              for name, metric in COMPILE_SPANS.items()}
    layers["core.engine.compile_other_s"] = (
        sum(span_seconds(spans, "compile"))
        - sum(layers[COMPILE_SPANS[name]] for name in COMPILE_CHILDREN))
    layers["ir.instrs_after"] = sum(
        engine.optimization_stats()["instrs_after"] for engine in engines)
    layers["core.groups"] = sum(len(engine.groups) for engine in engines)
    return layers
