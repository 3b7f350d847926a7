"""repro.api — the one-obvious public entry point.

Two functions are the supported surface for matching::

    import repro

    matcher = repro.compile(["a(bc)*d", "colou?r"], backend="compiled")
    report = matcher.scan(data)                 # one-shot
    session = matcher.stream()                  # chunked
    report = repro.scan(["cat|dog"], data)      # compile-and-scan

``repro.compile`` returns a :class:`Matcher` — a thin handle over the
compiled :class:`~repro.core.engine.BitGenEngine` exposing ``.scan()``,
``.stream()``, and ``.config``.  Configuration knobs are the
:class:`~repro.parallel.ScanConfig` fields, passed either as keywords
(``repro.compile(p, scheme=Scheme.SR, prefilter=True)``) or as one
``config=ScanConfig(...)`` object; keywords layer on top of ``config``.

Everything deeper — ``BitGenEngine``, ``StreamingMatcher``, the
executor and IR layers — is internal: stable enough to import for
research, but the facade is what the serving gateway
(:mod:`repro.serve`) and the CLI build on, and what stays compatible.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .parallel.config import ScanConfig
from .parallel.report import ScanReport

#: ScanConfig field names accepted as keyword knobs by the facade.
CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ScanConfig))


def resolve_knobs(config: Optional[ScanConfig], knobs) -> ScanConfig:
    """One ScanConfig from an optional base ``config`` plus keyword
    knobs (keywords win).  Unknown knobs raise ``TypeError`` naming
    the valid fields, so typos fail loudly instead of silently
    configuring nothing."""
    unknown = sorted(set(knobs) - CONFIG_FIELDS)
    if unknown:
        raise TypeError(
            f"unknown ScanConfig field(s) {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(CONFIG_FIELDS))}")
    base = config if config is not None else ScanConfig()
    return base.replace(**knobs) if knobs else base


def fingerprint_patterns(patterns: Sequence[Union[str, object]],
                         config: ScanConfig) -> str:
    """Stable identity of (patterns, compile-relevant config) —
    computable *without* compiling, so engine registries can key
    lookups before paying a compile."""
    digest = hashlib.sha256()
    for pattern in patterns:
        text = pattern if isinstance(pattern, str) else repr(pattern)
        digest.update(text.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    digest.update(repr(config.compile_key()).encode())
    return digest.hexdigest()[:16]


def load_patterns_file(path: Union[str, Path]) -> List[str]:
    """Load one pattern per line from ``path``.  Blank lines and lines
    whose first non-space character is ``#`` are skipped — the shared
    rule-set file format of the CLI (``--patterns-file``) and the
    benchmarks."""
    patterns: List[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            patterns.append(stripped)
    return patterns


class Matcher:
    """A compiled pattern set, ready to scan.

    Holds the engine, the patterns it was compiled from, and the
    resolved :class:`ScanConfig`.  One matcher serves any number of
    scans and streaming sessions concurrently — per-scan state lives
    in the report / session objects, not here.
    """

    def __init__(self, engine, patterns: Sequence[Union[str, object]]):
        self._engine = engine
        self.patterns: List[Union[str, object]] = list(patterns)

    # -- identity ----------------------------------------------------------

    @property
    def config(self) -> ScanConfig:
        return self._engine.config

    @property
    def pattern_count(self) -> int:
        return self._engine.pattern_count

    @property
    def engine(self):
        """The underlying :class:`BitGenEngine` (internal surface)."""
        return self._engine

    def fingerprint(self) -> str:
        """Stable identity of (patterns, compile-relevant config): the
        key persistent engine registries (:mod:`repro.serve`) cache
        compiled matchers under."""
        return fingerprint_patterns(self.patterns, self.config)

    def __repr__(self) -> str:
        return (f"Matcher(patterns={self.pattern_count}, "
                f"scheme={self.config.scheme.name}, "
                f"backend={self.config.backend!r})")

    # -- rule-set updates --------------------------------------------------

    def update(self, patterns: Sequence[Union[str, object]],
               config: Optional[ScanConfig] = None, **knobs):
        """Swap this matcher's rule set for ``patterns``, recompiling
        incrementally: compiled groups whose membership is unchanged
        are reused verbatim (:mod:`repro.core.incremental`), so update
        latency scales with the diff rather than the set size.

        Mutates the matcher in place — in-flight scans on the old
        engine finish unaffected — and returns the
        :class:`~repro.core.incremental.UpdateReport` accounting how
        much was reused.  Config knobs may be changed in the same
        call, at the cost of a full recompile when the compile key
        shifts."""
        from .core.incremental import update_engine

        effective = resolve_knobs(config or self.config, knobs) \
            if (config is not None or knobs) else self.config
        engine, report = update_engine(self._engine, patterns,
                                       config=effective)
        self._engine = engine
        self.patterns = list(patterns)
        return report

    # -- matching ----------------------------------------------------------

    def scan(self, data: bytes,
             config: Optional[ScanConfig] = None, **knobs) -> ScanReport:
        """Scan one input; scan-time knobs may be overridden per call
        (``matcher.scan(data, prefilter=True)``)."""
        if config is not None or knobs:
            return self._engine.scan(
                data, config=resolve_knobs(config or self.config, knobs))
        return self._engine.scan(data)

    def scan_many(self, streams: Sequence[bytes],
                  config: Optional[ScanConfig] = None,
                  **knobs) -> List[ScanReport]:
        """Scan several independent inputs, one report each."""
        effective = resolve_knobs(config or self.config, knobs) \
            if (config is not None or knobs) else None
        return [result.report() for result
                in self._engine.match_many(streams, config=effective)]

    def stream(self, config: Optional[ScanConfig] = None, **knobs):
        """A chunked :class:`~repro.core.streaming.StreamingMatcher`
        session over this matcher (fresh carried-history state)."""
        from .core.streaming import StreamingMatcher

        effective = resolve_knobs(config or self.config, knobs) \
            if (config is not None or knobs) else None
        return StreamingMatcher(self._engine, config=effective)


def compile(patterns: Sequence[Union[str, object]],
            config: Optional[ScanConfig] = None, **knobs) -> Matcher:
    """Compile ``patterns`` (regex strings or ASTs) into a
    :class:`Matcher`.  Keyword knobs are :class:`ScanConfig` fields."""
    from .core.engine import BitGenEngine

    resolved = resolve_knobs(config, knobs)
    engine = BitGenEngine._compile_config(patterns, resolved)
    return Matcher(engine, patterns)


def scan(patterns: Sequence[Union[str, object]], data: bytes,
         config: Optional[ScanConfig] = None, **knobs) -> ScanReport:
    """Compile-and-scan in one call — the simplest possible use."""
    return compile(patterns, config=config, **knobs).scan(data)
