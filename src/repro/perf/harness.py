"""Experiment harness.

Runs (application x engine x configuration) cells and returns rows that
the benchmark scripts print as the paper's tables and figures.  The
harness owns the *scaling policy*: the paper processes 10^6 bytes per
application against full rule sets; a pure-Python simulator scales both
down together (default: 2% of the rules, 64 KiB of input) and shrinks
the CTA block size so the block count per CTA stays at the paper's
~62 iterations (Table 5), keeping every per-block effect in play.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import BitGenEngine, BitGenResult
from ..core.schemes import Scheme
from ..engines.hyperscan import HyperscanEngine
from ..engines.icgrep import ICgrepEngine
from ..engines.ngap import NgAPEngine
from ..gpu.config import RTX_3090, XEON_8562Y, CPUConfig, GPUConfig
from ..gpu.machine import CTAGeometry
from ..gpu.metrics import KernelMetrics
from ..parallel.config import ScanConfig, reject_legacy_kwargs
from ..workloads.apps import (ALL_APPS, FULL_INPUT_BYTES, Workload,
                              app_by_name)
from . import model
from .model import Extrapolation, Throughput

#: benchmark geometry: 1024-bit blocks so a 64 KiB input spans ~64
#: blocks, mirroring the paper's ~62 iterations over 16,384-bit blocks
BENCH_GEOMETRY = CTAGeometry(threads=32, word_bits=32)

DEFAULT_SCALE = 0.02
DEFAULT_INPUT_BYTES = 65536

ENGINE_NAMES = ("BitGen", "HS-1T", "HS-MT", "ngAP", "icgrep")


@dataclass
class EngineRun:
    """One (app, engine) measurement."""

    app: str
    engine: str
    throughput: Throughput
    match_count: int
    metrics: Optional[KernelMetrics] = None
    cta_metrics: Optional[List[KernelMetrics]] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: full optimisation-pass report for BitGen rows — opt level,
    #: instruction counts before/after, and per-pass deltas; ``None``
    #: for baseline engines, which have no IR pipeline
    optimization_stats: Optional[Dict[str, object]] = None

    @property
    def mbps(self) -> float:
        return self.throughput.mbps


class Harness:
    """Caches workloads and compiled engines across experiment cells.

    Accepts one :class:`~repro.parallel.ScanConfig` for the scan-side
    knobs (devices, geometry, backend, workers); the individual
    ``gpu``/``cpu``/``geometry``/``backend`` keyword arguments were
    removed after their deprecation window.  The harness-only scaling
    policy (``scale``, ``input_bytes``, ``seed``) stays as plain
    keywords — it describes the experiment, not the scan.
    """

    def __init__(self, scale: float = DEFAULT_SCALE,
                 input_bytes: int = DEFAULT_INPUT_BYTES,
                 seed: int = 0,
                 config: Optional[ScanConfig] = None, **legacy):
        reject_legacy_kwargs("Harness", legacy)
        if config is None:
            config = ScanConfig()
        # Pin the harness's own defaults for fields the caller left
        # unset, so one config object moves between entry points.
        if config.gpu is None:
            config = config.replace(gpu=RTX_3090)
        if config.cpu is None:
            config = config.replace(cpu=XEON_8562Y)
        if config.geometry is None:
            config = config.replace(geometry=BENCH_GEOMETRY)
        self.config = config
        self.scale = scale
        self.input_bytes = input_bytes
        self.seed = seed
        #: faults of the most recent parallel ``run_all`` (empty when
        #: the grid ran serially or cleanly)
        self.last_scan_faults: list = []
        self._workloads: Dict[str, Workload] = {}
        self._bitgen_cache: Dict[Tuple, BitGenEngine] = {}

    # -- config-backed views (the pre-ScanConfig attribute surface) --------

    @property
    def gpu(self) -> GPUConfig:
        return self.config.gpu

    @property
    def cpu(self) -> CPUConfig:
        return self.config.cpu

    @property
    def geometry(self) -> CTAGeometry:
        return self.config.geometry

    @property
    def backend(self) -> str:
        return self.config.backend

    # -- workloads ------------------------------------------------------------

    def workload(self, app_name: str) -> Workload:
        cached = self._workloads.get(app_name)
        if cached is None:
            spec = app_by_name(app_name)
            cached = spec.build(scale=self.scale, seed=self.seed,
                                input_bytes=int(self.input_bytes
                                                / self.scale))
            self._workloads[app_name] = cached
        return cached

    def cta_count(self, workload: Workload) -> int:
        """Mirror the paper's fixed 256-CTA launches, scaled down with
        the rule set so regexes-per-CTA matches the full setting."""
        scaled = round(256 * len(workload.patterns)
                       / workload.spec.regex_count)
        return max(2, min(scaled, len(workload.patterns)))

    def extrapolation(self, workload: Workload) -> Extrapolation:
        """Scale counted work back to the paper's full setting (full
        rule set over 10^6 bytes)."""
        return Extrapolation(
            pattern_factor=workload.spec.regex_count
            / max(1, len(workload.patterns)),
            input_factor=FULL_INPUT_BYTES / max(1, len(workload.data)))

    # -- engines -----------------------------------------------------------------

    def bitgen_engine(self, workload: Workload,
                      scheme: Scheme = Scheme.ZBS,
                      merge_size: int = 8,
                      interval_size: int = 8,
                      backend: Optional[str] = None) -> BitGenEngine:
        backend = backend if backend is not None else self.backend
        key = (workload.name, scheme, merge_size, interval_size, backend)
        engine = self._bitgen_cache.get(key)
        if engine is None:
            engine = BitGenEngine._compile_config(
                workload.nodes,
                self.config.replace(
                    scheme=scheme, merge_size=merge_size,
                    interval_size=interval_size, backend=backend,
                    cta_count=self.cta_count(workload),
                    loop_fallback=True))
            self._bitgen_cache[key] = engine
        return engine

    def run_bitgen(self, app_name: str, scheme: Scheme = Scheme.ZBS,
                   merge_size: int = 8, interval_size: int = 8,
                   gpu: Optional[GPUConfig] = None,
                   backend: Optional[str] = None) -> EngineRun:
        workload = self.workload(app_name)
        engine = self.bitgen_engine(workload, scheme, merge_size,
                                    interval_size, backend=backend)
        result: BitGenResult = engine.match(workload.data)
        throughput = model.model_bitgen(result.cta_metrics,
                                        gpu or self.gpu,
                                        len(workload.data),
                                        self.extrapolation(workload))
        opt = engine.optimization_stats()
        extra = {"opt_level": opt["opt_level"],
                 "ops_removed": opt["ops_removed"],
                 "opt_passes": opt["passes"]}
        if engine.last_prefilter is not None:
            extra["prefilter"] = engine.last_prefilter.to_dict()
        return EngineRun(app=app_name,
                         engine=f"BitGen[{scheme.value}]"
                         if scheme is not Scheme.ZBS else "BitGen",
                         throughput=throughput,
                         match_count=result.match_count(),
                         metrics=result.metrics,
                         cta_metrics=result.cta_metrics,
                         extra=extra,
                         optimization_stats=opt)

    def run_baseline(self, app_name: str, engine_name: str,
                     gpu: Optional[GPUConfig] = None) -> EngineRun:
        workload = self.workload(app_name)
        extrapolation = self.extrapolation(workload)
        if engine_name == "ngAP":
            engine = NgAPEngine.compile(workload.nodes)
            result = engine.match(workload.data)
            throughput = model.model_ngap(engine.last_stats,
                                          gpu or self.gpu, extrapolation)
            extra = {"avg_parallelism":
                     engine.last_stats.avg_parallelism()}
        elif engine_name == "icgrep":
            engine = ICgrepEngine.compile(workload.nodes)
            result = engine.match(workload.data)
            throughput = model.model_icgrep(engine.last_stats, self.cpu,
                                            extrapolation)
            extra = {}
        elif engine_name in ("HS-1T", "HS-MT"):
            engine = HyperscanEngine.compile(workload.patterns)
            result = engine.match(workload.data)
            threads = 1 if engine_name == "HS-1T" else self.cpu.cores
            throughput = model.model_hyperscan(engine.last_stats,
                                               self.cpu, threads=threads,
                                               extrapolation=extrapolation)
            # Expose the prefilter-side work counters alongside the
            # modelled throughput, so the benchmark tables can report
            # how much the literal pass pruned (these drifted out of
            # the rows when the stats object grew).
            stats = engine.last_stats
            extra = {"literal_fraction": stats.literal_fraction(),
                     "prefiltered_out": stats.prefiltered_out,
                     "nfa_scanned": stats.nfa_scanned,
                     "confirm_windows": stats.confirm_windows}
        else:
            raise KeyError(f"unknown engine {engine_name!r}")
        return EngineRun(app=app_name, engine=engine_name,
                         throughput=throughput,
                         match_count=result.match_count(), extra=extra)

    def run(self, app_name: str, engine_name: str) -> EngineRun:
        if engine_name.startswith("BitGen"):
            return self.run_bitgen(app_name)
        return self.run_baseline(app_name, engine_name)

    def run_all(self, apps: Optional[Sequence[str]] = None,
                engines: Sequence[str] = ENGINE_NAMES,
                config: Optional[ScanConfig] = None) -> List[EngineRun]:
        """Run the (app, engine) grid.

        With ``workers > 1`` in ``config`` (or the harness config),
        cells are fanned across a worker pool (:func:`run_cells`);
        results keep the serial grid order and a faulted cell falls
        back to running in this process (recorded in
        :attr:`last_scan_faults`).
        """
        apps = list(apps) if apps is not None \
            else [a.name for a in ALL_APPS]
        effective = config if config is not None else self.config
        cells = [(app, engine) for app in apps for engine in engines]
        if effective.parallel_enabled():
            return run_cells(self, cells, effective)
        self.last_scan_faults = []
        return [self.run(app, engine) for app, engine in cells]

    # -- cross-checking -------------------------------------------------------------

    def verify_engines_agree(self, app_name: str) -> bool:
        """All engines must report identical matches on this workload
        (the Section 7 validation step)."""
        workload = self.workload(app_name)
        reference = self.bitgen_engine(workload).match(workload.data)
        for cls in (NgAPEngine, ICgrepEngine):
            other = cls.compile(workload.nodes).match(workload.data)
            if not reference.same_matches(other):
                return False
        hyperscan = HyperscanEngine.compile(
            workload.patterns).match(workload.data)
        return reference.same_matches(hyperscan)


def run_cells(harness: Harness, cells: Sequence[Tuple[str, str]],
              config: ScanConfig) -> List[EngineRun]:
    """Fan ``(app, engine)`` cells across a
    :class:`~repro.parallel.pool.WorkerPool`, one cell per task.  Each
    worker rebuilds the harness from its spec (memoised per process),
    results come back in cell order, and a faulted cell is re-run in
    ``harness``."""
    from .. import obs
    from ..parallel import worker as worker_mod
    from ..parallel.pool import WorkerPool

    cache_dir = None
    if config.executor == "process":
        from ..parallel.diskcache import default_cache_dir

        cache_dir = config.cache_dir or default_cache_dir()
        worker_mod.attach_disk_cache(cache_dir)
    spec = (harness.config.serial(), harness.scale,
            harness.input_bytes, harness.seed)
    payloads = [(spec, app, engine, cache_dir) for app, engine in cells]
    pool = WorkerPool(config, cache_dir=cache_dir)
    with obs.span("grid", category="scan", cells=len(cells),
                  workers=config.workers, executor=config.executor):
        results, faults = pool.map_shards(
            worker_mod.run_cell, payloads,
            serial_fn=lambda payload: harness.run(payload[1],
                                                  payload[2]))
    harness.last_scan_faults = faults
    return results
