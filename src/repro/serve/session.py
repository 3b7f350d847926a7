"""Streaming match sessions.

One :class:`Session` is one client stream multiplexed over a hosted
engine: it owns the per-stream :class:`~repro.core.streaming.
StreamingMatcher` state (carried tail, global offset) while the
compiled engine underneath is shared by every session of the same
pattern set.  Feeds report *new* match ends in global stream
coordinates, so interleaving sessions on one engine is bit-identical
to running each stream through a serial one-shot scan — the matcher
state is the only mutable part, and each session has its own.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Optional

from ..parallel.report import ScanReport
from .host import HostedEngine

_session_ids = itertools.count(1)


def next_session_id(tenant: str) -> str:
    return f"{tenant}-{next(_session_ids)}"


class Session:
    """One client stream over one hosted engine."""

    def __init__(self, session_id: str, tenant: str,
                 hosted: HostedEngine,
                 max_tail_bytes: Optional[int] = None):
        self.id = session_id
        self.tenant = tenant
        self.hosted = hosted
        config = hosted.matcher.config
        if max_tail_bytes is not None:
            config = config.replace(max_tail_bytes=max_tail_bytes)
        self.matcher = hosted.matcher.stream(config=config)
        self.opened_at = time.monotonic()
        #: last feed (or open) time — what idle eviction measures
        self.last_active = self.opened_at
        self.chunks = 0
        self.match_count = 0
        self.bytes_fed = 0
        self.closed = False

    def feed(self, chunk: bytes) -> ScanReport:
        """Scan one chunk; new match ends in stream coordinates."""
        report = self.matcher.feed(chunk)
        self.last_active = time.monotonic()
        self.chunks += 1
        self.bytes_fed += len(chunk)
        self.match_count += report.match_count()
        return report

    @property
    def stream_position(self) -> int:
        return self.matcher.stream_position

    def idle_s(self) -> float:
        """Seconds since the last feed (or the open)."""
        return time.monotonic() - self.last_active

    def close(self) -> Dict[str, object]:
        """Final summary; the session is unusable afterwards."""
        self.closed = True
        return self.stats()

    def stats(self) -> Dict[str, object]:
        return {"session": self.id,
                "tenant": self.tenant,
                "fingerprint": self.hosted.fingerprint,
                "chunks": self.chunks,
                "bytes": self.bytes_fed,
                "matches": self.match_count,
                "stream_position": self.stream_position,
                "age_s": round(time.monotonic() - self.opened_at, 6),
                "idle_s": round(self.idle_s(), 6),
                "closed": self.closed}
