"""Seeded, site-addressable fault injection.

A :class:`ChaosPlan` is a tuple of :class:`ChaosRule` entries, each
naming a **site** (glob over the instrumented site names), a **fault
kind**, a firing **probability**, and an optional **max_count**,
driven by one seeded RNG so a plan replays deterministically within a
process.  ``REPRO_CHAOS="worker.*:exception"`` fails every worker
task; ``:timeout`` and ``:exit`` hang or kill them instead.

Instrumented sites (grep ``maybe_inject`` for ground truth):

========================  ====================================
``worker.cell``           harness grid cell (``run_cell``)
``pool.acquire``          executor acquisition in the parent
========================  ====================================

Fault kinds: ``exception`` raises :class:`InjectedFault`;
``timeout`` sleeps :func:`sleep_seconds` (default 2.5 s, override
``$REPRO_CHAOS_SLEEP``) so ``worker_timeout``/``deadline_s`` paths
fire; ``exit`` kills the process with ``os._exit(13)`` (a
``BrokenExecutor`` for process pools — never aim it at thread
executors or the parent); ``pool`` is ``exception`` by another name,
intended for ``pool.acquire`` where any raise becomes an
unstartable-pool fault.

Arming a plan:

* **in-process** — ``install(plan)``; reaches parent-side sites,
  thread workers, and process workers forked *after* the install;
* **environment** — ``REPRO_CHAOS=<spec>`` with the grammar below;
  reaches every worker (fork and spawn inherit the environment).

Spec grammar (``;``-separated clauses)::

    spec    := clause (";" clause)*
    clause  := "seed=" INT | rule
    rule    := SITE ":" KIND [":" PROB [":" MAXCOUNT]]

    REPRO_CHAOS='seed=7;worker.*:exception:0.05;pool.acquire:pool:0.1:2'

Injection is **suppressed** inside the dispatcher's inline-recovery
path (:func:`suppress`): recovery re-runs worker task functions in the
parent, and re-injecting there would turn a survivable worker ``exit``
into parent suicide — recovery must always converge.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from .. import obs

#: structured spec environment hook
CHAOS_ENV = "REPRO_CHAOS"
#: override for how long a ``timeout`` injection sleeps
SLEEP_ENV = "REPRO_CHAOS_SLEEP"

FAULT_KINDS = ("exception", "timeout", "exit", "pool")

#: default ``timeout``-injection sleep (bounds test teardown)
DEFAULT_SLEEP_SECONDS = 2.5

_INJECTIONS = obs.registry().counter(
    "repro_chaos_injections_total",
    "Faults injected by the chaos framework, by site and kind")


class InjectedFault(RuntimeError):
    """Raised by ``exception``/``pool`` chaos injections."""


def sleep_seconds() -> float:
    override = os.environ.get(SLEEP_ENV)
    if override:
        try:
            return float(override)
        except ValueError:
            pass
    return DEFAULT_SLEEP_SECONDS


# -- the plan ----------------------------------------------------------------


@dataclass(frozen=True)
class ChaosRule:
    """One injection rule: where, what, how often, how many times."""

    site: str                       # glob over site names
    kind: str                       # one of FAULT_KINDS
    probability: float = 1.0
    max_count: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("chaos probability must be in [0, 1]")
        if self.max_count is not None and self.max_count < 1:
            raise ValueError("chaos max_count must be >= 1")

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.site)

    def to_clause(self) -> str:
        clause = f"{self.site}:{self.kind}:{self.probability:g}"
        if self.max_count is not None:
            clause += f":{self.max_count}"
        return clause


@dataclass(frozen=True)
class ChaosPlan:
    """An ordered rule set plus the seed that drives its RNG."""

    rules: Tuple[ChaosRule, ...]
    seed: int = 0

    def to_spec(self) -> str:
        """The ``$REPRO_CHAOS`` string that reproduces this plan."""
        clauses = [f"seed={self.seed}"]
        clauses.extend(rule.to_clause() for rule in self.rules)
        return ";".join(clauses)

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse the spec grammar; raises :class:`ValueError` with the
        offending clause on any malformed input."""
        rules = []
        seed = 0
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise ValueError(
                        f"bad chaos seed clause {clause!r}") from None
                continue
            parts = clause.split(":")
            if not 2 <= len(parts) <= 4:
                raise ValueError(
                    f"bad chaos rule {clause!r}; expected "
                    f"site:kind[:probability[:max_count]]")
            site, kind = parts[0], parts[1]
            try:
                probability = float(parts[2]) if len(parts) > 2 else 1.0
                max_count = int(parts[3]) if len(parts) > 3 else None
            except ValueError:
                raise ValueError(
                    f"bad chaos rule {clause!r}: probability must be "
                    f"a float and max_count an int") from None
            rules.append(ChaosRule(site=site, kind=kind,
                                   probability=probability,
                                   max_count=max_count))
        if not rules:
            raise ValueError(f"chaos spec {spec!r} contains no rules")
        return cls(rules=tuple(rules), seed=seed)


# -- per-process runtime state -----------------------------------------------


class _ChaosState:
    """One armed plan's mutable half: the seeded RNG and per-rule
    injection counts.  Per process — forked workers start from a copy
    of the parent's state at fork time, spawned workers re-arm from
    the environment with a fresh (identically seeded) RNG."""

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.counts = [0] * len(plan.rules)
        self.lock = threading.Lock()

    def draw(self, site: str) -> Optional[str]:
        """The fault kind to inject at ``site`` now, or ``None``.
        Every *matching* rule gets a draw until one fires, so rule
        order is part of the plan's identity."""
        with self.lock:
            for index, rule in enumerate(self.plan.rules):
                if not rule.matches(site):
                    continue
                if (rule.max_count is not None
                        and self.counts[index] >= rule.max_count):
                    continue
                if self.rng.random() >= rule.probability:
                    continue
                self.counts[index] += 1
                return rule.kind
        return None

    def injections(self) -> int:
        with self.lock:
            return sum(self.counts)


_INSTALLED: Optional[_ChaosState] = None
#: memoised env-armed state, keyed by the exact spec string so a
#: changed environment re-parses (and re-seeds) automatically
_ENV_STATE: Tuple[Optional[str], Optional[_ChaosState]] = (None, None)
_STATE_LOCK = threading.Lock()
_SUPPRESSED = threading.local()


def install(plan: ChaosPlan) -> None:
    """Arm ``plan`` in this process (and, under ``fork``, in workers
    forked after this call).  For spawn-started workers export
    ``plan.to_spec()`` as ``$REPRO_CHAOS`` instead."""
    global _INSTALLED
    with _STATE_LOCK:
        _INSTALLED = _ChaosState(plan)


def uninstall() -> None:
    global _INSTALLED
    with _STATE_LOCK:
        _INSTALLED = None


def reset() -> None:
    """Disarm everything and drop memoised env state (test isolation).
    An env-armed plan re-arms — reseeded, counts zeroed — on the next
    injection check while the variable is still set."""
    global _INSTALLED, _ENV_STATE
    with _STATE_LOCK:
        _INSTALLED = None
        _ENV_STATE = (None, None)


def active_state() -> Optional[_ChaosState]:
    """The armed chaos state: the installed plan wins, then
    ``$REPRO_CHAOS``."""
    global _ENV_STATE
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return None
    with _STATE_LOCK:
        cached_key, cached = _ENV_STATE
        if cached_key == spec and cached is not None:
            return cached
        state = _ChaosState(ChaosPlan.parse(spec))
        _ENV_STATE = (spec, state)
        return state


def armed() -> bool:
    """Whether any chaos source is live — the dispatcher bypasses warm
    persistent pools while armed, because env/plan mutations only
    reach workers created afterwards."""
    return active_state() is not None


@contextmanager
def suppress():
    """No injections on this thread while the context is open — wraps
    the dispatcher's inline recovery so chaos can never make recovery
    itself fail (or ``os._exit`` the parent)."""
    previous = getattr(_SUPPRESSED, "active", False)
    _SUPPRESSED.active = True
    try:
        yield
    finally:
        _SUPPRESSED.active = previous


def maybe_inject(site: str) -> None:
    """THE injection point: called by every instrumented site.  A
    no-op (two env reads) when nothing is armed."""
    state = active_state()
    if state is None or getattr(_SUPPRESSED, "active", False):
        return
    kind = state.draw(site)
    if kind is None:
        return
    _INJECTIONS.inc(site=site, kind=kind)
    if kind == "timeout":
        time.sleep(sleep_seconds())
        return
    if kind == "exit":
        os._exit(13)
    raise InjectedFault(f"chaos fault injected at {site} "
                        f"(kind={kind})")


def injection_count() -> int:
    """Total injections fired by the currently armed state (0 when
    nothing is armed) — the soak harness's 'did chaos actually bite'
    assertion."""
    state = active_state()
    return state.injections() if state is not None else 0
