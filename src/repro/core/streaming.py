"""Streaming (chunked) matching.

Deep packet inspection — the paper's motivating deployment — sees its
input as a stream of packets, not one buffer.  :class:`StreamingMatcher`
wraps a compiled :class:`BitGenEngine` with carried history: each
``feed(chunk)`` scans the retained tail of the previous data plus the
new chunk and reports only the *new* match end positions, in global
stream coordinates.

Results come back as :class:`~repro.parallel.report.ScanReport` — the
unified result type shared with one-shot scans — carrying
the pattern → positions mapping (the old ``Dict[int, List[int]]``
surface, preserved through the report's Mapping interface), the stream
offset the report was produced at, and the merged kernel metrics of
the chunk's scan.

Correctness bound: a match whose span exceeds the retained tail can be
missed when it straddles a chunk boundary.  The constructor sizes the
tail from the pattern set — for bounded patterns the exact maximum
match length; unbounded patterns (Kleene stars over the alphabet) fall
back to the configured ``max_tail_bytes``, which then becomes an
explicit guarantee ("matches up to N bytes are never missed"), the
same contract stream-mode Hyperscan documents for its bounded-history
modes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..engines.hyperscan import max_match_length
from ..parallel.config import ScanConfig, reject_legacy_kwargs
from ..parallel.report import ScanReport
from .engine import BitGenEngine

DEFAULT_MIN_TAIL = 256


class StreamingMatcher:
    """Chunked matcher over one compiled engine."""

    def __init__(self, engine: BitGenEngine,
                 config: Optional[ScanConfig] = None, **legacy):
        reject_legacy_kwargs("StreamingMatcher", legacy)
        if engine._nodes is None:
            raise ValueError("engine was built without pattern ASTs")
        self.config = config if config is not None else engine.config
        self.engine = engine
        bounded: List[int] = []
        self.has_unbounded = False
        for node in engine._nodes:
            longest = max_match_length(node)
            if longest is None:
                self.has_unbounded = True
            else:
                bounded.append(longest)
        wanted = max(bounded + [DEFAULT_MIN_TAIL])
        if self.has_unbounded:
            wanted = self.config.max_tail_bytes
        #: matches up to this many bytes long are never missed
        self.guaranteed_span = min(wanted, self.config.max_tail_bytes)
        self._tail = b""
        self._consumed = 0          # stream bytes before the tail
        self.chunks_fed = 0

    # -- streaming -----------------------------------------------------------

    def feed(self, chunk: bytes) -> ScanReport:
        """Scan ``chunk``; reports the new match end positions per
        pattern in global stream coordinates, at the stream offset
        reached after consuming the chunk."""
        self.chunks_fed += 1
        window = self._tail + chunk
        result = self.engine.match(window)
        boundary = len(self._tail)
        # matched patterns only; the report drops any left empty
        fresh: Dict[int, List[int]] = {
            pattern: [self._consumed + pos for pos in ends
                      if pos >= boundary]
            for pattern, ends in result.found.items()}
        keep = min(len(window), self.guaranteed_span)
        self._consumed += len(window) - keep
        self._tail = window[len(window) - keep:]
        return ScanReport(pattern_count=self.engine.pattern_count,
                          matches=fresh,
                          stream_offset=self.stream_position,
                          input_bytes=len(chunk),
                          metrics=result.metrics,
                          cta_metrics=result.cta_metrics)

    def feed_all(self, chunks: Sequence[bytes]) -> ScanReport:
        """Feed several chunks; returns one merged report."""
        merged = ScanReport(pattern_count=self.engine.pattern_count)
        for chunk in chunks:
            merged.merge(self.feed(chunk))
        return merged

    @property
    def stream_position(self) -> int:
        """Total bytes consumed so far."""
        return self._consumed + len(self._tail)

    def reset(self) -> None:
        self._tail = b""
        self._consumed = 0
        self.chunks_fed = 0
