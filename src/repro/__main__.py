"""Command-line multi-pattern matcher.

Usage examples::

    python -m repro 'a(bc)*d' 'cat|dog' --text 'abcbcd hot dog'
    python -m repro -f rules.txt -i payload.bin --engine hyperscan
    python -m repro 'colou?r' --text '...' --scheme SR --stats
    python -m repro 'a(bc)*d' --kernel          # print the CUDA-like kernel
    python -m repro scan --patterns rules.txt data.bin
    python -m repro trace Bro217 --export chrome -o trace.json
    python -m repro serve --port 8321        # persistent matching gateway
    python -m repro serve --self-test        # end-to-end smoke, exit 0/1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .core.engine import BitGenEngine
from .core.schemes import Scheme
from .engines.base import Engine
from .engines.hyperscan import HyperscanEngine
from .engines.icgrep import ICgrepEngine
from .engines.ngap import NgAPEngine
from .engines.re2 import RE2Engine
from .api import load_patterns_file
from .parallel.config import (BACKENDS, GROUPINGS, PREFILTER_IMPLS,
                              ScanConfig)

ENGINES = {
    "bitgen": BitGenEngine,
    "hyperscan": HyperscanEngine,
    "ngap": NgAPEngine,
    "icgrep": ICgrepEngine,
    "re2": RE2Engine,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-pattern regex matching with the BitGen "
                    "reproduction (and its baseline engines).")
    parser.add_argument("patterns", nargs="*",
                        help="regex patterns to match")
    parser.add_argument("-f", "--patterns-file",
                        help="file with one pattern per line")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("-i", "--input", help="input file to scan")
    source.add_argument("--text", help="inline input text")
    parser.add_argument("--engine", choices=sorted(ENGINES),
                        default="bitgen")
    parser.add_argument("--scheme", choices=[s.name for s in Scheme],
                        default="ZBS",
                        help="BitGen execution scheme (bitgen engine only)")
    parser.add_argument("--stats", action="store_true",
                        help="print engine work statistics")
    parser.add_argument("--spans", action="store_true",
                        help="also report match start positions "
                             "(bitgen engine only)")
    parser.add_argument("--kernel", action="store_true",
                        help="print the generated CUDA-like kernel and exit")
    parser.add_argument("--limit", type=int, default=10,
                        help="max positions printed per pattern")
    return parser


def load_patterns(args) -> List[str]:
    patterns = list(args.patterns)
    if args.patterns_file:
        patterns.extend(load_patterns_file(args.patterns_file))
    if not patterns:
        raise SystemExit("no patterns given (positional or -f)")
    return patterns


def load_input(args) -> bytes:
    if args.text is not None:
        return args.text.encode()
    if args.input:
        with open(args.input, "rb") as handle:
            return handle.read()
    return sys.stdin.buffer.read()


def build_scan_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scan",
        description="Scan input files, emitting a ScanReport as "
                    "JSON (one report per input file).")
    parser.add_argument("inputs", nargs="*", metavar="FILE",
                        help="input files to scan (stdin when omitted)")
    parser.add_argument("--patterns", "--patterns-file",
                        dest="patterns", metavar="FILE",
                        help="rule-set file: one pattern per line, "
                             "blank lines and '#' comments skipped")
    parser.add_argument("--prefilter", action="store_true",
                        help="gate kernel dispatch on a literal "
                             "prefilter pass (identical matches, "
                             "skips groups whose required literals "
                             "are absent)")
    parser.add_argument("--prefilter-impl", choices=PREFILTER_IMPLS,
                        default="screen",
                        help="prefilter gate implementation")
    parser.add_argument("--grouping", choices=GROUPINGS,
                        default="balanced",
                        help="regex grouping strategy (fingerprint "
                             "scales best to large rule sets)")
    parser.add_argument("--backend", choices=BACKENDS, default="simulate",
                        help="simulate (default) also models the GPU "
                             "schedule behind the paper's metrics; "
                             "compiled runs int kernels, several times "
                             "faster, with estimated metrics")
    parser.add_argument("--scheme", choices=[s.name for s in Scheme],
                        default="ZBS")
    parser.add_argument("--indent", type=int, default=2,
                        help="JSON indentation (0 = compact)")
    return parser


def scan_main(argv: List[str]) -> int:
    args = build_scan_parser().parse_args(argv)
    if not args.patterns:
        raise SystemExit(
            "no rule-set file given (--patterns/--patterns-file)")
    patterns = load_patterns_file(args.patterns)
    if not patterns:
        raise SystemExit(f"no patterns in {args.patterns}")
    config = ScanConfig(scheme=Scheme[args.scheme], backend=args.backend,
                        loop_fallback=True,
                        grouping=args.grouping,
                        prefilter=args.prefilter,
                        prefilter_impl=args.prefilter_impl)
    engine = BitGenEngine.compile(patterns, config=config)

    if args.inputs:
        names = args.inputs
        streams = []
        for name in names:
            with open(name, "rb") as handle:
                streams.append(handle.read())
    else:
        names = ["<stdin>"]
        streams = [sys.stdin.buffer.read()]

    reports = []
    for name, result in zip(names, engine.match_many(streams)):
        payload = result.report().to_dict()
        payload["file"] = name
        gate = getattr(result, "prefilter", None)
        if gate is not None:
            payload["prefilter"] = gate.to_dict()
        reports.append(payload)
    indent = args.indent if args.indent > 0 else None
    out = reports[0] if len(reports) == 1 else reports
    print(json.dumps(out, indent=indent))
    return 0 if any(r["match_count"] for r in reports) else 1


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one standard workload with tracing enabled "
                    "and export the spans (and metrics): a compile, a "
                    "scan, and every pass/codegen/exec span in "
                    "between.")
    parser.add_argument("app", help="workload application from Table 1 "
                                    "(e.g. Snort, Bro217, ClamAV)")
    parser.add_argument("--export",
                        choices=("chrome", "jsonl", "prometheus"),
                        default="chrome",
                        help="chrome: trace_event JSON (load in "
                             "Perfetto / chrome://tracing); jsonl: one "
                             "span dict per line; prometheus: metrics "
                             "text exposition")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: trace-<app>.<ext>)")
    parser.add_argument("--backend", choices=BACKENDS,
                        default="compiled")
    parser.add_argument("--scheme", choices=[s.name for s in Scheme],
                        default="ZBS")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="workload scale factor (rule-set fraction)")
    parser.add_argument("--input-bytes", type=int, default=4096,
                        help="approximate scan input size")
    return parser


def trace_main(argv: List[str]) -> int:
    args = build_trace_parser().parse_args(argv)
    from . import obs
    from .workloads.apps import app_by_name

    spec = app_by_name(args.app)
    workload = spec.build(scale=args.scale, seed=0,
                          input_bytes=int(args.input_bytes / args.scale))
    config = ScanConfig(scheme=Scheme[args.scheme],
                        backend=args.backend, cta_count=4,
                        loop_fallback=True)

    tracer = obs.start_tracing()
    engine = BitGenEngine._compile_config(workload.nodes, config)
    report = engine.scan(workload.data)
    obs.stop_tracing()
    spans = tracer.finished()

    extensions = {"chrome": "json", "jsonl": "jsonl",
                  "prometheus": "prom"}
    out = args.output or \
        f"trace-{spec.name.lower()}.{extensions[args.export]}"
    if args.export == "chrome":
        obs.export.write_chrome(spans, out)
    elif args.export == "jsonl":
        obs.export.write_jsonl(spans, out)
    else:
        obs.export.write_prometheus(obs.registry(), out)

    categories: dict = {}
    for span in spans:
        categories[span["cat"]] = categories.get(span["cat"], 0) + 1
    breakdown = ", ".join(f"{count} {cat}" for cat, count
                          in sorted(categories.items()))
    print(f"{spec.name}: {len(workload.patterns)} patterns, "
          f"{len(workload.data)} bytes, {report.match_count()} "
          f"matches")
    print(f"trace: {len(spans)} spans ({breakdown}) -> {out}")
    cache = obs.registry().counter(
        "repro_kernel_cache_lookups_total",
        "In-process kernel cache lookups")
    hits = obs.registry().counter(
        "repro_kernel_cache_hits_total",
        "In-process kernel cache hits")
    print(f"kernel cache: {int(hits.value())}/{int(cache.value())} "
          f"lookups hit")
    return 0


def main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "scan":
        return scan_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.cli import serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    patterns = load_patterns(args)

    if args.engine == "bitgen":
        engine: Engine = BitGenEngine.compile(
            patterns, config=ScanConfig(scheme=Scheme[args.scheme],
                                        loop_fallback=True))
    else:
        engine = ENGINES[args.engine].compile(patterns)

    if args.kernel:
        if not isinstance(engine, BitGenEngine):
            raise SystemExit("--kernel requires --engine bitgen")
        print(engine.render_kernels())
        return 0

    data = load_input(args)
    result = engine.match(data)
    starts = engine.match_starts(data) \
        if args.spans and isinstance(engine, BitGenEngine) else None

    all_ends = result.ends
    all_starts = starts.ends if starts is not None else {}
    for index, pattern in enumerate(patterns):
        ends = all_ends[index]
        shown = ", ".join(map(str, ends[:args.limit]))
        suffix = ", ..." if len(ends) > args.limit else ""
        print(f"/{pattern}/: {len(ends)} match(es)"
              + (f" ending at [{shown}{suffix}]" if ends else ""))
        if all_starts.get(index):
            begin = ", ".join(map(str, all_starts[index][:args.limit]))
            print(f"    starts at [{begin}]")

    if args.stats:
        if isinstance(engine, BitGenEngine):
            print(f"\n{result.metrics.summary()}")
        else:
            print(f"\n{engine.last_stats}")
    return 0 if result.match_count() else 1


if __name__ == "__main__":
    sys.exit(main())
