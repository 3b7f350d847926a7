"""The benchmarks' one timing helper."""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple


def best_of(fn: Callable[[], Any], repeat: int) -> Tuple[float, Any]:
    """``(seconds, result)``: the fastest of ``repeat`` calls of
    ``fn`` and the last call's result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return best, result
