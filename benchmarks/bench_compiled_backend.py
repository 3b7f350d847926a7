"""Compiled backend vs the simulating executors on the Table 2
harness path.

Not a paper experiment — this measures the reproduction's own engine
room.  The Table 2 cells execute every CTA through the per-window
interleaved *simulation* (which is what produces the modelled metrics);
the compiled backend answers the same matches through cached kernels
over Python-int bitstreams, one C loop per op.  The paper's claim that
JIT-specialised fused kernels beat interpretive execution is mirrored
here: the compiled path must be at least 5x faster wall-clock, and the
kernel cache must show hits (structurally repeated groups and repeated
cells recompile nothing).
"""

import time

from repro.backend import kernel_cache
from repro.ir.interpreter import Interpreter
from repro.parallel.config import ScanConfig

APP = "Snort"
MIN_SPEEDUP = 5.0


def _time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        begin = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - begin)
    return best, result


def test_compiled_backend_speedup(ctx, benchmark):
    harness = ctx.harness
    workload = harness.workload(APP)
    data = workload.data
    mb = len(data) / 1e6

    simulate = harness.bitgen_engine(workload)
    compiled = harness.bitgen_engine(workload, backend="compiled")

    sim_seconds, sim_result = _time(simulate.match, data, repeat=1)

    cache = kernel_cache()
    cache.stats.reset()
    compiled.match(data)  # warm-up: compiles and caches the kernels
    first_lookups = cache.stats.lookups
    comp_seconds, comp_result = _time(compiled.match, data)
    assert comp_result.ends == sim_result.ends

    # A second engine over the same workload recompiles nothing: every
    # kernel lookup hits (the "repeated harness cell" case).
    from repro.core.engine import BitGenEngine

    recompiled = BitGenEngine.compile(
        workload.nodes,
        config=ScanConfig(geometry=harness.geometry,
                          cta_count=harness.cta_count(workload),
                          loop_fallback=True, backend="compiled"))
    recompiled.match(data[:2048])

    # Secondary reference: whole-stream big-integer interpretation of
    # the same group programs (no window schedule, no metrics).
    interpreter = Interpreter()
    interp_seconds, _ = _time(
        lambda: [interpreter.run(group.program, data)
                 for group in simulate.groups], repeat=1)

    speedup = sim_seconds / comp_seconds
    print()
    print(f"app={APP} input={len(data)} bytes "
          f"groups={len(simulate.groups)}")
    print(f"  simulate (Table 2 path): {sim_seconds:8.3f}s "
          f"{mb / sim_seconds:10.2f} MB/s")
    print(f"  interpreter (bigint):    {interp_seconds:8.3f}s "
          f"{mb / interp_seconds:10.2f} MB/s")
    print(f"  compiled (batched):      {comp_seconds:8.3f}s "
          f"{mb / comp_seconds:10.2f} MB/s")
    print(f"  compiled vs simulate: {speedup:.1f}x   "
          f"compiled vs interpreter: {interp_seconds / comp_seconds:.1f}x")
    print(f"  kernel cache: {cache.stats.hits}/{cache.stats.lookups} "
          f"hits, {len(cache)} kernels resident, "
          f"hit rate {cache.stats.hit_rate():.0%}")

    assert speedup >= MIN_SPEEDUP, \
        f"compiled backend only {speedup:.1f}x over the simulate path"
    assert cache.stats.hits >= first_lookups, \
        "a repeated cell must hit the kernel cache for every group"

    benchmark(compiled.match, data)
