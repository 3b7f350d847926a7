"""The persistent-engine registry.

Compilation is the cost the paper's engine amortizes across scans;
:class:`EngineHost` is where a long-lived gateway does the amortizing.
Engines are compiled at most once per ``(tenant, fingerprint)`` — the
fingerprint covers the pattern set and every compile-relevant
:class:`~repro.parallel.ScanConfig` field — kept warm in an LRU
registry of bounded capacity, and evicted coldest-first when a new
pattern set needs the slot.

Eviction only drops the *registry's* reference: streaming sessions
hold their own reference to the hosted engine, so an in-flight session
keeps matching on an evicted engine until it closes (the registry just
won't hand it to new sessions — a fresh ``acquire`` recompiles).

Residency and churn are exported through the ``repro_serve_engines``
gauges and the ``repro_serve_engine_events_total`` counter (hit /
miss / refresh / evict), the signals a capacity dashboard needs.

:meth:`EngineHost.refresh` is the rule-set *update* path: on a miss it
recompiles incrementally off the tenant's warmest compatible resident
engine, so pushing a small diff to a large set costs the diff, not
the set.  :meth:`EngineHost.acquire` is the same path without a donor,
and :meth:`EngineHost.lookup` its hit half alone: the gateway asks it
on the event-loop thread whether a request can run there, since a hit
compiles nothing.  A compile builds every kernel of the engine before
it becomes resident, so a hit never generates code either.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .. import obs
from ..api import Matcher, fingerprint_patterns
from ..api import compile as compile_patterns
from ..parallel.config import ScanConfig
from ..regex.parser import RegexSyntaxError
from .config import BadRequestError, ServeConfig

_REG = obs.registry()
_ENGINES = _REG.gauge(
    "repro_serve_engines",
    "Hosted-engine registry residency, by state (resident/capacity)")
_ENGINE_EVENTS = _REG.counter(
    "repro_serve_engine_events_total",
    "Engine-registry events: hit, miss (compile), evict")
_COMPILE_SECONDS = _REG.histogram(
    "repro_serve_compile_seconds",
    "Wall time of gateway-triggered engine compilations")


@dataclass
class HostedEngine:
    """One resident compiled engine plus its serving bookkeeping."""

    tenant: str
    fingerprint: str
    matcher: Matcher
    compiled_s: float
    #: monotonically increasing acquire count (hits + the miss)
    uses: int = 0
    #: streaming sessions currently holding this engine
    active_sessions: int = 0
    #: acquire sequence number of the most recent use (LRU ordering is
    #: the OrderedDict; this is for the stats view)
    last_use: int = 0
    #: monotonic time of the most recent acquire — the idle signal a
    #: capacity dashboard (and /healthz) reads
    last_used_at: float = field(default_factory=time.monotonic)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.tenant, self.fingerprint)

    def stats(self) -> Dict[str, object]:
        return {"tenant": self.tenant,
                "fingerprint": self.fingerprint,
                "patterns": self.matcher.pattern_count,
                "compiled_s": round(self.compiled_s, 6),
                "uses": self.uses,
                "active_sessions": self.active_sessions,
                "idle_s": round(time.monotonic() - self.last_used_at, 6)}


class EngineKey(NamedTuple):
    """What a request asks the registry for: a tenant's pattern set
    under the config it compiles with, and the fingerprint it is
    resident under (:meth:`EngineHost.key` takes it once)."""

    tenant: str
    patterns: Sequence[Union[str, object]]
    config: ScanConfig
    fingerprint: str

    @property
    def slot(self) -> Tuple[str, str]:
        """The registry key: ``(tenant, fingerprint)``."""
        return (self.tenant, self.fingerprint)


def _hostable(config: ScanConfig) -> ScanConfig:
    """``config`` with ``loop_fallback`` on.  A simulated scan without
    it raises :class:`~repro.core.overlap.OverlapLimitError` on
    legitimate input whose loop outgrows one block (Section 8.2); a
    gateway would answer ``internal`` and count it against its
    breaker.  Compiled engines never raise it."""
    return config if config.loop_fallback \
        else config.replace(loop_fallback=True)


class EngineHost:
    """Compile-once, keep-warm, evict-LRU registry of matchers."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        self._engines: "OrderedDict[Tuple[str, str], HostedEngine]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self._acquires = 0
        self._default_scan = _hostable(self.config.scan)
        _ENGINES.set(self.config.max_engines, state="capacity")
        _ENGINES.set(0, state="resident")

    # -- lookup and compile -------------------------------------------------

    def key(self, tenant: str, patterns: Sequence[Union[str, object]],
            config: Optional[ScanConfig] = None) -> EngineKey:
        """Where ``(tenant, patterns, config)`` lives in the registry.
        The one place a request's fingerprint is taken, after its
        config is made hostable (``loop_fallback=True``)."""
        scan_config = self._default_scan if config is None \
            else _hostable(config)
        return EngineKey(tenant, patterns, scan_config,
                         fingerprint_patterns(patterns, scan_config))

    def lookup(self, key: EngineKey) -> Optional[HostedEngine]:
        """The resident engine for ``key``, counted as a hit, or None
        on a miss.  Never compiles."""
        with self._lock:
            return self._hit(key)

    def acquire(self, tenant: str,
                patterns: Sequence[Union[str, object]],
                config: Optional[ScanConfig] = None) -> HostedEngine:
        """The hosted engine for ``(tenant, patterns, config)`` —
        compiled now on first use, reused warm afterwards."""
        return self.obtain(self.key(tenant, patterns, config))

    def refresh(self, tenant: str,
                patterns: Sequence[Union[str, object]],
                config: Optional[ScanConfig] = None) -> HostedEngine:
        """Acquire with incremental recompilation: like
        :meth:`acquire`, but a miss looks for a *donor* — the
        tenant's warmest resident matcher with the same compile key —
        and reuses its compiled groups for the unchanged slice of the
        rule set (:mod:`repro.core.incremental`).  The donor engine is
        never mutated (its registry key must keep describing it;
        in-flight sessions keep their exact rule set) — the refreshed
        set gets a fresh :class:`HostedEngine` under its own
        fingerprint, and plain LRU eviction retires the old one.
        """
        return self.obtain(self.key(tenant, patterns, config),
                           incremental=True)

    def obtain(self, key: EngineKey,
               incremental: bool = False) -> HostedEngine:
        """The resident engine for ``key``, or a fresh one compiled and
        inserted — off a donor when ``incremental``.  Every kernel is
        built before the engine becomes resident, so a hit never
        generates code.  A pattern that does not parse raises
        :class:`~repro.serve.config.BadRequestError`."""
        with self._lock:
            hosted = self._hit(key)
            if hosted is not None:
                return hosted
            donor = self._donor(key) if incremental else None
        # Compile outside the lock: a slow compile must not block
        # hits on other pattern sets.  A racing obtain of the same
        # key may compile twice; the second insert wins the slot and
        # both callers hold working engines.
        begin = time.perf_counter()
        update = None
        try:
            if donor is None:
                matcher = compile_patterns(key.patterns,
                                           config=key.config)
            else:
                from ..core.incremental import update_engine

                engine, update = update_engine(donor.engine, key.patterns,
                                               config=key.config)
                matcher = Matcher(engine, key.patterns)
        except RegexSyntaxError as exc:
            raise BadRequestError(f"unparseable pattern: {exc}") from exc
        matcher.engine.build_kernels()
        elapsed = time.perf_counter() - begin
        _COMPILE_SECONDS.observe(elapsed)
        _ENGINE_EVENTS.inc(event="refresh" if donor is not None
                           else "miss")
        hosted = HostedEngine(tenant=key.tenant,
                              fingerprint=key.fingerprint,
                              matcher=matcher, compiled_s=elapsed, uses=1)
        if update is not None:
            hosted.extra["update"] = update.to_dict()
        with self._lock:
            self._acquires += 1
            hosted.last_use = self._acquires
            self._engines[key.slot] = hosted
            self._engines.move_to_end(key.slot)
            self._evict_over_capacity()
            _ENGINES.set(len(self._engines), state="resident")
        return hosted

    def _hit(self, key: EngineKey) -> Optional[HostedEngine]:
        """Caller holds the lock: the resident engine for ``key``,
        marked used, or None."""
        hosted = self._engines.get(key.slot)
        if hosted is None:
            return None
        self._acquires += 1
        self._engines.move_to_end(key.slot)
        hosted.uses += 1
        hosted.last_use = self._acquires
        hosted.last_used_at = time.monotonic()
        _ENGINE_EVENTS.inc(event="hit")
        return hosted

    def _donor(self, key: EngineKey) -> Optional[Matcher]:
        """Caller holds the lock: the tenant's warmest resident matcher
        compiled under ``key``'s compile key."""
        compile_key = key.config.compile_key()
        for resident in reversed(self._engines.values()):
            if (resident.tenant == key.tenant and resident.matcher
                    .config.compile_key() == compile_key):
                return resident.matcher
        return None

    def _evict_over_capacity(self) -> None:
        """Caller holds the lock.  Engines with live sessions are
        skipped — evicting them would only delay their release — unless
        *everything* is live, in which case the coldest goes anyway so
        the registry cannot grow without bound."""
        while len(self._engines) > self.config.max_engines:
            # never the most-recent entry: that is the engine the
            # current acquire is about to hand out
            candidates = list(self._engines)[:-1]
            victim_key = next(
                (key for key in candidates
                 if self._engines[key].active_sessions == 0),
                candidates[0])
            del self._engines[victim_key]
            _ENGINE_EVENTS.inc(event="evict")

    # -- session refcounting ------------------------------------------------

    def session_opened(self, hosted: HostedEngine) -> None:
        with self._lock:
            hosted.active_sessions += 1

    def session_closed(self, hosted: HostedEngine) -> None:
        with self._lock:
            hosted.active_sessions = max(0, hosted.active_sessions - 1)

    # -- introspection ------------------------------------------------------

    def resident(self) -> List[Tuple[str, str]]:
        """(tenant, fingerprint) keys, coldest first."""
        with self._lock:
            return list(self._engines)

    def get(self, tenant: str,
            fingerprint: str) -> Optional[HostedEngine]:
        """Registry lookup without LRU side effects (tests, stats)."""
        with self._lock:
            return self._engines.get((tenant, fingerprint))

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "capacity": self.config.max_engines,
                "resident": len(self._engines),
                "acquires": self._acquires,
                "engines": [hosted.stats()
                            for hosted in self._engines.values()],
            }

    def clear(self) -> None:
        """Drop every resident engine (test isolation / reload)."""
        with self._lock:
            self._engines.clear()
            _ENGINES.set(0, state="resident")
