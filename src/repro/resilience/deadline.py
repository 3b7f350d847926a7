"""Deadlines for pool dispatches and gateway requests.

A :class:`Deadline` is one monotonic budget shared by everything a
pool dispatch does — pool acquisition, every per-shard wait, every
retry backoff.  The pool derives each blocking wait
from :meth:`wait_budget`, so the *sum* of waits can never exceed the
budget: a dispatch with ``deadline_s`` set stops blocking on workers at
the deadline and finishes the stragglers inline (reported as
``ShardFault(kind="deadline")``), bounding total latency at roughly
the deadline plus one shard's inline runtime per unfinished shard.

Deadlines bound *waiting on workers*, not computation: the inline
recovery that preserves the bit-identity guarantee still runs to
completion.  Callers that need a hard wall-clock cut must also shrink
the work (fewer or smaller cells).  The gateway checks each request's
deadline when it dequeues the request.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class Deadline:
    """A monotonic-clock budget decremented by the passage of time."""

    __slots__ = ("budget_s", "_expires_at", "_clock")

    def __init__(self, budget_s: float,
                 clock: Callable[[], float] = time.monotonic):
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._expires_at = clock() + self.budget_s

    @classmethod
    def start(cls, budget_s: Optional[float],
              clock: Callable[[], float] = time.monotonic
              ) -> Optional["Deadline"]:
        """``None`` stays ``None`` — the no-deadline fast path is a
        single ``is None`` check at every wait site."""
        if budget_s is None:
            return None
        return cls(budget_s, clock=clock)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def wait_budget(self, timeout: Optional[float]) -> float:
        """The timeout one blocking wait may use: the smaller of the
        per-wait ``timeout`` (``None`` = unbounded) and the remaining
        scan budget, floored at zero so an expired deadline turns
        every further wait into an immediate timeout."""
        remaining = max(self.remaining(), 0.0)
        if timeout is None:
            return remaining
        return min(timeout, remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(budget={self.budget_s}, "
                f"remaining={self.remaining():.3f})")
