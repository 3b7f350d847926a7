"""A circuit breaker for pool-level faults.

The persistent-pool registry (:mod:`repro.parallel.pool`) makes worker
pools warm; the breaker keeps a *broken* start method from turning
that warmth into a storm.  Without it, a platform where process pools
reliably die (a bad ``forkserver`` setup, a container that kills
children, exhausted PIDs) pays a fresh cold pool start **per dispatch**,
each one failing, each one falling back shard-by-shard.

State machine (the classic three states):

* **closed** — dispatches flow to pools; each pool-level fault
  (unstartable pool, ``BrokenExecutor``, worker timeout) increments a
  consecutive-failure count, any clean pool dispatch resets it;
* **open** — entered after ``threshold`` consecutive failures.
  :meth:`allow` answers ``False``: the dispatcher runs shards inline
  (still bit-identical, just serial) without touching pools, for
  ``cooldown_s`` seconds;
* **half-open** — the first :meth:`allow` after the cooldown returns
  ``True`` exactly once (the probe) and moves here; the probe's
  outcome decides: success closes the circuit, failure re-opens it
  and restarts the cooldown.

State is exported as the ``repro_breaker_state`` gauge (0 closed,
1 open, 2 half-open) and every transition bumps
``repro_breaker_transitions_total{to=...}``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .. import obs

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: gauge encoding, stable for dashboards
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

_STATE_GAUGE = obs.registry().gauge(
    "repro_breaker_state",
    "Circuit-breaker state by name: 0 closed, 1 open, 2 half-open")
_TRANSITIONS = obs.registry().counter(
    "repro_breaker_transitions_total",
    "Circuit-breaker state transitions, by breaker name and new state")


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing."""

    def __init__(self, name: str = "default", threshold: int = 3,
                 cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.name = name
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        _STATE_GAUGE.set(0, name=name)

    # -- state -------------------------------------------------------------

    def _transition(self, state: str) -> None:
        """Caller holds the lock."""
        if state == self._state:
            return
        self._state = state
        _STATE_GAUGE.set(STATE_CODES[state], name=self.name)
        _TRANSITIONS.inc(name=self.name, to=state)

    def state(self) -> str:
        with self._lock:
            return self._state

    def failures(self) -> int:
        with self._lock:
            return self._failures

    # -- the dispatch-side protocol ----------------------------------------

    def allow(self) -> bool:
        """May the next dispatch use a pool?  In the open state this
        flips to half-open (and answers ``True``) exactly once per
        cooldown — the single probe; a second caller racing the probe
        gets ``False`` and stays inline."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self._transition(HALF_OPEN)
                    return True
                return False
            return False  # half-open: probe already in flight

    def record_success(self) -> None:
        """A dispatch used a pool and the pool held up."""
        with self._lock:
            self._failures = 0
            if self._state == HALF_OPEN:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """A dispatch hit a pool-level fault (unstartable pool,
        broken executor, worker timeout)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(OPEN)
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.threshold:
                self._opened_at = self._clock()
                self._transition(OPEN)

    def reset(self) -> None:
        """Back to a clean closed circuit (test isolation, or an
        operator override after fixing the environment)."""
        with self._lock:
            self._failures = 0
            self._transition(CLOSED)
