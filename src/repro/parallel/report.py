"""The unified scan result.

Every scan path — one-shot :meth:`BitGenEngine.match` and streaming
:meth:`StreamingMatcher.feed` — reports through one
:class:`ScanReport`: pattern → match end positions, the stream offset
the report was produced at, and the merged kernel metrics.
:class:`ShardFault` records one worker failure the
:class:`~repro.parallel.pool.WorkerPool` handled.

``ScanReport`` is a :class:`~collections.abc.Mapping` over
``pattern index → positions``, so code written against the old bare
``Dict[int, List[int]]`` return shape (``report[0]``, ``report.items()``,
``report == {...}``) keeps working unchanged.  It stores only the
patterns that matched (``found``) and serves every pattern from that:
an unmatched one reads ``[]``, so a scan that matched a few of 1,000
patterns costs O(matches), not O(patterns).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..gpu.metrics import KernelMetrics


#: traceback text per fault is truncated to this many trailing
#: characters — the tail carries the raising frame, and reports must
#: stay cheap to ship/serialise even with many faults
TRACEBACK_LIMIT = 2000


def format_fault_traceback(exc: BaseException,
                           limit: int = TRACEBACK_LIMIT) -> str:
    """The exception's full traceback (cause chain included — for
    process-pool futures that is where the worker-side remote
    traceback lives), truncated to its ``limit`` trailing chars."""
    import traceback

    text = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__)).rstrip()
    if len(text) > limit:
        text = "...(truncated)...\n" + text[-limit:]
    return text


@dataclass(frozen=True)
class ShardFault:
    """One worker failure the pool handled."""

    shard: int              # payload index within the dispatch
    kind: str               # "error" | "timeout" | "pool" | "deadline"
    error: str              # stringified cause
    #: how the shard's work was recovered: ``"serial"`` (inline
    #: degrade), ``"retry"`` (a retry attempt succeeded), or
    #: ``"abort"`` (``on_fault="fail"`` — nothing recovered)
    fallback: str = "serial"
    #: truncated traceback of the cause (empty for timeouts/deadlines,
    #: which have no exception object worth keeping)
    traceback: str = ""
    #: retry attempts spent on this shard before it settled
    retries: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"shard": self.shard, "kind": self.kind,
                "error": self.error, "fallback": self.fallback,
                "traceback": self.traceback, "retries": self.retries}

    def summary(self) -> str:
        """One log-friendly line."""
        return (f"shard={self.shard} kind={self.kind} "
                f"retries={self.retries} fallback={self.fallback} "
                f"error={self.error}")


def dense_ends(found: Dict[int, List[int]],
               pattern_count: int) -> Dict[int, List[int]]:
    """The dense pattern → ends dict of a sparse ``found`` (matched
    patterns only): every pattern in order, ``[]`` when unmatched.
    The views built on access (``ScanReport.matches``,
    ``BitGenResult.ends``) come from here; no scan builds one."""
    return {index: found.get(index, []) for index in range(pattern_count)}


class ScanReport(Mapping):
    """Matches plus provenance for one scan (or one streaming step)."""

    __slots__ = ("pattern_count", "found", "stream_offset",
                 "input_bytes", "metrics", "cta_metrics", "trace")

    def __init__(self, pattern_count: int,
                 matches: Optional[Dict[int, List[int]]] = None,
                 stream_offset: int = 0, input_bytes: int = 0,
                 metrics: Optional[KernelMetrics] = None,
                 cta_metrics: Optional[List[KernelMetrics]] = None,
                 trace: Optional[List[Dict[str, object]]] = None):
        self.pattern_count = pattern_count
        #: pattern → end positions of the patterns that matched (never
        #: an empty list); ``matches`` (dense or sparse) is copied, so
        #: the report owns every list it holds and :meth:`merge` may
        #: extend them
        self.found: Dict[int, List[int]] = {
            pattern: list(ends) for pattern, ends in matches.items()
            if ends} if matches else {}
        #: total stream bytes consumed when this report was produced
        self.stream_offset = stream_offset
        self.input_bytes = input_bytes
        self.metrics = metrics if metrics is not None else KernelMetrics()
        self.cta_metrics = list(cta_metrics) if cta_metrics else []
        #: span dicts of the scan that produced this report (the scan
        #: span and everything beneath it);
        #: ``None`` unless a :mod:`repro.obs` tracer was recording
        self.trace = trace

    # -- construction ------------------------------------------------------

    @classmethod
    def from_result(cls, result, stream_offset: int = 0) -> "ScanReport":
        """Wrap a :class:`~repro.engines.base.MatchResult` (plain or
        :class:`~repro.core.engine.BitGenResult`).  A BitGenResult
        hands over its sparse ``found``, so wrapping costs O(matches)
        however many patterns the engine has; the report copies the
        matched lists and shares none with the result."""
        found = getattr(result, "found", None)
        return cls(pattern_count=result.pattern_count,
                   matches=found if found is not None else result.ends,
                   stream_offset=stream_offset,
                   input_bytes=getattr(result, "input_bytes", 0),
                   metrics=getattr(result, "metrics", None),
                   cta_metrics=getattr(result, "cta_metrics", None))

    # -- mapping interface (pattern -> end positions) ----------------------

    @property
    def matches(self) -> Dict[int, List[int]]:
        """Every pattern → its end positions, as a dense dict built on
        each access (unmatched patterns read ``[]``)."""
        return dense_ends(self.found, self.pattern_count)

    def __getitem__(self, pattern: int) -> List[int]:
        ends = self.found.get(pattern)
        if ends is not None:
            return ends
        if pattern in range(self.pattern_count):
            return []
        raise KeyError(pattern)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.pattern_count))

    def __len__(self) -> int:
        return self.pattern_count

    def __eq__(self, other) -> bool:
        if isinstance(other, ScanReport):
            return (self.pattern_count == other.pattern_count
                    and self.found == other.found)
        if isinstance(other, Mapping):
            return self.matches == dict(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return (f"ScanReport(patterns={self.pattern_count}, "
                f"matches={self.match_count()}, "
                f"offset={self.stream_offset})")

    # -- aggregate views ---------------------------------------------------

    def match_count(self) -> int:
        return sum(map(len, self.found.values()))

    def matched_patterns(self) -> List[int]:
        return sorted(self.found)

    def merge(self, other: "ScanReport") -> "ScanReport":
        """Fold another report into this one (streaming):
        matches extend, metrics accumulate, the offset advances.  Only
        this report's own lists grow; ``other`` is read, never
        changed."""
        for pattern, ends in other.found.items():
            mine = self.found.get(pattern)
            if mine is None:
                self.found[pattern] = list(ends)
            else:
                mine.extend(ends)
        self.pattern_count = max(self.pattern_count, other.pattern_count)
        self.stream_offset = max(self.stream_offset, other.stream_offset)
        self.input_bytes += other.input_bytes
        self.metrics.merge(other.metrics)
        self.cta_metrics.extend(other.cta_metrics)
        if other.trace:
            self.trace = (self.trace or []) + other.trace
        return self

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (the ``python -m repro scan`` output)."""
        from dataclasses import asdict

        payload = {
            "pattern_count": self.pattern_count,
            "match_count": self.match_count(),
            "matches": {str(k): v for k, v in self.matches.items()},
            "stream_offset": self.stream_offset,
            "input_bytes": self.input_bytes,
            "metrics": asdict(self.metrics),
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
