"""In-process workloads: bulk-snort and ruleset-1k.

One caller in a closed loop calls ``Matcher.scan`` on the workload's
inputs in rotation.  A traced run adds the program's spans (compile
stages, scans, kernel batches) and a replay phase that times each
layer's public function on the same inputs with tracing off:
transpose, prefilter gate, kernels, metric estimation and match-end
extraction, whose outputs must equal what ``Matcher.scan`` returned.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro
import repro.obs as obs
from repro.backend import (basis_environment, compile_group, dispatch_words,
                           estimate_metrics, kernel_cache)
from repro.bitstream.npvector import NPBitVector

from common import (Stopwatch, compile_layers, format_stage_table, mean,
                    peak_rss_mb, run_record, span_seconds, stage_table)

CONFIGS = {
    "bulk-snort": {"backend": "compiled"},
    "ruleset-1k": {"backend": "compiled", "grouping": "fingerprint",
                   "prefilter": True},
}


def wire_ends(report) -> Dict[str, List[int]]:
    """A ScanReport's matches in the reference's shape."""
    return {str(p): list(e) for p, e in sorted(report.matches.items()) if e}


def setup(patterns, inputs, config, work: Path, rep: int):
    """Compile and scan each input once (lazy codegen and prefilter
    index build happen on first scans), from cold kernel caches."""
    kernel_cache().clear()
    os.environ["REPRO_KERNEL_CACHE"] = str(work / f"kernels-{rep}")
    with obs.span("bench.setup", category="bench", rep=rep):
        with Stopwatch() as watch:
            matcher = repro.compile(patterns, **config)
            reports = [matcher.scan(data) for data in inputs]
    return matcher, reports, watch.seconds


def run(workload, expected, seconds: float, trace: bool, setups: int,
        work: Path, out: Path, seed: int) -> Dict[str, object]:
    config = CONFIGS[workload.name]
    patterns, inputs = workload.tenants["main"]
    expected = expected["main"]
    mismatches: List[str] = []

    def check(index: int, report, when: str) -> bool:
        got = wire_ends(report)
        if got != expected[index]:
            mismatches.append(f"{when}: input {index}: {len(got)} patterns "
                              f"matched, reference {len(expected[index])}")
            return False
        return True

    setup_seconds = []
    for rep in range(setups):
        matcher = None          # free the previous engine first
        matcher, reports, elapsed = setup(patterns, inputs, config, work,
                                          rep)
        setup_seconds.append(elapsed)
        for index, report in enumerate(reports):
            check(index, report, "setup")
    cache = kernel_cache().stats
    cache_hit_ratio = cache.hits / cache.lookups if cache.lookups else 0.0

    latencies: List[float] = []
    failed = 0
    window_start = time.time()
    deadline = time.perf_counter() + seconds
    op = 0
    while time.perf_counter() < deadline:
        index = op % len(inputs)
        with obs.span("bench.op", category="bench", input=index):
            begin = time.perf_counter()
            report = matcher.scan(inputs[index])
            latencies.append(time.perf_counter() - begin)
        if not check(index, report, "measure"):
            failed += 1
        op += 1
    scanned = sum(len(inputs[i % len(inputs)]) for i in range(op))
    record = run_record(setup_seconds, scanned / sum(latencies) / 1e6,
                        latencies, peak_rss_mb(), op, failed, mismatches)
    if not trace:
        return record

    spans = obs.stop_tracing()
    trace_path = out / f"trace-{workload.name}-s{seed}.json"
    obs.export.write_chrome(spans, str(trace_path))
    layers = compile_layers(spans, [matcher.engine])
    layers["backend.kernel_cache_hit_ratio"] = cache_hit_ratio
    layers["backend.fused_calls"] = (
        len(span_seconds(spans, "exec.batch", window_start)) / op)
    layers.update(replay(matcher, inputs, expected, seconds / 2,
                         mismatches, record["lines"]))
    record["layers"] = layers
    record["lines"].append(f"  chrome trace: {trace_path}")
    return record


def replay(matcher, inputs, expected, budget_s: float, mismatches,
           lines) -> Dict[str, float]:
    """Time ``Matcher.scan`` and, on the same input, each layer it is
    made of, by calling the layers' public functions in order."""
    engine = matcher.engine
    config = matcher.config
    programs = compile_group([g.program for g in engine.groups],
                             honour_guards=engine.scheme.zero_skipping)
    index_ = engine.prefilter_index() if config.prefilter else None
    times: Dict[str, List[float]] = {key: [] for key in (
        "scan", "gate", "transpose", "kernel", "estimate", "ends")}
    word_ops = positions = active_share = fired = 0.0
    rounds = 0
    deadline = time.perf_counter() + budget_s
    while rounds < len(inputs) or time.perf_counter() < deadline:
        index = rounds % len(inputs)
        data = inputs[index]
        length = len(data) + 1
        with Stopwatch() as watch:
            report = matcher.scan(data)
        times["scan"].append(watch.seconds)

        with Stopwatch() as watch:
            if index_ is not None:
                active, gate = index_.active_groups(data,
                                                    config.prefilter_impl)
            else:
                active, gate = list(range(len(engine.groups))), None
        times["gate"].append(watch.seconds if gate is not None else 0.0)
        with Stopwatch() as watch:
            basis = basis_environment(data)
        times["transpose"].append(watch.seconds)
        with Stopwatch() as watch:
            dispatched = dispatch_words([programs[i] for i in active],
                                        basis, length)
        times["kernel"].append(watch.seconds)
        with Stopwatch() as watch:
            estimated = [estimate_metrics(engine.groups[i].program,
                                          engine.geometry, length, stats)
                         for i, (_, stats) in zip(active, dispatched)]
        times["estimate"].append(watch.seconds)
        with Stopwatch() as watch:
            ends = {}
            for i, (raw, _) in zip(active, dispatched):
                group = engine.groups[i]
                for out in group.program.outputs:
                    found = NPBitVector(np.asarray(raw[out], dtype=np.uint64),
                                        length).match_ends()
                    if found:
                        ends[group.group.indices[int(out[1:])]] = found
        times["ends"].append(watch.seconds)

        replayed = {str(p): e for p, e in sorted(ends.items())}
        if replayed != wire_ends(report) or replayed != expected[index]:
            mismatches.append(f"replay: input {index}: layer outputs differ "
                              f"from Matcher.scan or the reference")
        ops = sum(m.thread_word_ops for m in estimated)
        if ops != report.metrics.thread_word_ops:
            mismatches.append(f"replay: input {index}: estimated word ops "
                              f"{ops} != the scan's "
                              f"{report.metrics.thread_word_ops}")
        word_ops += ops / len(data)
        positions += report.match_count()
        active_share += len(active) / len(engine.groups)
        fired += gate.fired if gate is not None else 0
        rounds += 1

    parts = [("core.prefilter.gate_s", mean(times["gate"])),
             ("backend.transpose_s", mean(times["transpose"])),
             ("backend.kernel_s", mean(times["kernel"])),
             ("backend.estimate_metrics_s", mean(times["estimate"])),
             ("bitstream.match_ends_s", mean(times["ends"]))]
    table = stage_table(mean(times["scan"]), parts, "core.engine.glue_s")
    lines.extend(format_stage_table(
        f"Matcher.scan stages ({rounds} replays)", table))
    layers = {row["stage"]: row["seconds"] for row in table["rows"]}
    layers.update({
        "api.scan_s": table["total_s"],
        "backend.word_ops_per_byte": word_ops / rounds,
        "bitstream.match_positions": positions / rounds,
        "core.prefilter.active_ratio": active_share / rounds,
        "core.prefilter.fired_literals": fired / rounds,
    })
    return layers
