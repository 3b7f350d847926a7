"""repro.resilience — policy-driven fault handling for the worker pool.

The :class:`~repro.parallel.pool.WorkerPool` that runs harness grid
cells has always *survived* worker faults (every faulted cell degrades
to an inline rerun); this package makes the degraded paths
**policied, bounded, and measurable**:

* :class:`RetryPolicy` / :class:`ScanAbortedError`
  (:mod:`~repro.resilience.policy`) — what happens on a worker fault:
  degrade (default), retry with backoff on a fresh pool, or fail fast;
* :class:`Deadline` (:mod:`~repro.resilience.deadline`) — one
  monotonic budget for all of a dispatch's blocking waits, so a hung
  worker can never stall a grid past ``ScanConfig.deadline_s``;
* :class:`CircuitBreaker` (:mod:`~repro.resilience.breaker`) — wraps
  the persistent-pool registry: consecutive pool-level faults open the
  circuit and dispatch goes inline for a cooldown instead of paying a
  cold-start storm on a broken start method;
* :class:`ChaosPlan` (:mod:`~repro.resilience.chaos`) — seeded,
  site-addressable fault injection (``$REPRO_CHAOS``) that lets tests
  and the CI soak job deterministically exercise every fault path
  while asserting results stay bit-identical to serial.

Everything here is dispatch-layer: policies never change *what* a cell
computes, only how (and whether) it recovers.  The serving gateway
reuses :class:`Deadline` and :class:`CircuitBreaker` for its
requests.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, STATE_CODES, CircuitBreaker
from .chaos import (CHAOS_ENV, DEFAULT_SLEEP_SECONDS, FAULT_KINDS,
                    SLEEP_ENV, ChaosPlan, ChaosRule, InjectedFault)
from .deadline import Deadline
from .policy import ON_FAULT_POLICIES, RetryPolicy, ScanAbortedError
from . import chaos

__all__ = [
    "CHAOS_ENV",
    "CLOSED",
    "ChaosPlan",
    "ChaosRule",
    "CircuitBreaker",
    "DEFAULT_SLEEP_SECONDS",
    "Deadline",
    "FAULT_KINDS",
    "HALF_OPEN",
    "InjectedFault",
    "ON_FAULT_POLICIES",
    "OPEN",
    "RetryPolicy",
    "SLEEP_ENV",
    "STATE_CODES",
    "ScanAbortedError",
    "chaos",
]
