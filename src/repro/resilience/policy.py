"""Fault-handling policy: what a pool dispatch (a harness grid) does
when a shard's worker dies.  A shard is one payload of
:meth:`~repro.parallel.pool.WorkerPool.map_shards`: one grid cell.

Three policies, selected by :attr:`ScanConfig.on_fault`:

* ``"degrade"`` (the default, and the only pre-resilience behaviour) —
  the faulted shard re-runs **inline** through the serial path, so a
  parallel grid never fails and never changes results;
* ``"retry"`` — the shard is retried up to
  :attr:`ScanConfig.max_retries` times with exponential backoff plus
  jitter, each attempt on a **fresh single-worker pool** (a poisoned
  or crashed pool must not eat the retry too); only when every retry
  faults does the shard degrade to the inline path.  Transient faults
  therefore recover *without* serial fallback, which matters once
  shards are expensive enough that an in-process rerun doubles the
  grid's critical path;
* ``"fail"`` — the first fault aborts the whole dispatch with
  :class:`ScanAbortedError`.  For callers that would rather surface
  partial-failure than silently absorb a degraded (slower) grid.

The policy object itself is dumb on purpose: delays are computed here,
but *applied* by the dispatcher (:mod:`repro.parallel.pool`), which
also clamps them against the dispatch deadline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: The ``ScanConfig.on_fault`` vocabulary.
ON_FAULT_POLICIES = ("degrade", "retry", "fail")


class ScanAbortedError(RuntimeError):
    """A worker fault aborted the scan (``on_fault="fail"``).

    Carries the triggering :class:`~repro.parallel.report.ShardFault`
    as ``.fault`` so callers can route on the fault kind.
    """

    def __init__(self, fault):
        super().__init__(
            f"scan aborted: shard {fault.shard} faulted "
            f"({fault.kind}): {fault.error}")
        self.fault = fault


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with multiplicative jitter.

    Attempt ``n`` (1-based) sleeps ``backoff_s * 2**(n-1)`` scaled by
    a uniform factor in ``[1, 1 + jitter]`` — jitter is additive-only
    so the base backoff stays a floor, and two shards that faulted
    together do not retry in lockstep.
    """

    max_retries: int = 0
    backoff_s: float = 0.05
    jitter: float = 0.5
    #: hard cap on any single computed delay, so a deep retry ladder
    #: cannot sleep past what a caller would consider hung
    max_delay_s: float = 5.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.jitter < 0 or self.max_delay_s < 0:
            raise ValueError("backoff, jitter, and max_delay must "
                             "be >= 0")

    def delay_s(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Seconds to sleep before retry ``attempt`` (1-based)."""
        base = self.backoff_s * (2 ** max(attempt - 1, 0))
        if rng is not None and self.jitter > 0:
            base *= 1.0 + self.jitter * rng.random()
        return min(base, self.max_delay_s)

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """The policy a :class:`~repro.parallel.config.ScanConfig`
        asks for (jitter stays at the default; it is an implementation
        detail, not a tuning surface)."""
        return cls(max_retries=config.max_retries,
                   backoff_s=config.retry_backoff)
