"""Span-based tracer with cross-process context propagation.

One :class:`Tracer` records a tree of :class:`Span`\\ s — nestable,
wall- and CPU-timed stages — for a whole pipeline run: compile →
optimize → codegen → dispatch → scan.  Nesting is tracked per thread
(a thread-local span stack), so thread-pool shards parent correctly,
and a picklable :class:`TraceContext` carries ``(trace_id, span_id)``
across process boundaries so pool workers can stitch their spans under
the dispatching span (:mod:`repro.obs.propagate`).

Design constraints, in priority order:

1. **Near-zero cost when disabled.**  Instrumentation sites call
   :func:`repro.obs.span`, which returns the one shared
   :data:`NULL_SPAN` instance when no tracer is installed — a global
   read, a ``None`` check, and two empty method calls for the ``with``
   protocol.  ``benchmarks/bench_obs_overhead.py`` measures the cost
   and CI fails if it exceeds 2% of the quick benchmark's wall time.
2. **Unique span ids across processes.**  Ids are
   ``"<pid:x>-<seq:x>"``; the sequence is one atomic counter per
   process, shared by every tracer in it (a persistent pool worker
   builds a fresh tracer per shard), and the pid is read live, so
   forked workers inheriting the counter's state still mint distinct
   ids.
3. **Mergeable records.**  Finished spans are stored as plain dicts
   (``to_dict`` schema below), the same form workers marshal back, so
   adoption, export, and subtree queries all operate on one shape.

Span dict schema::

    {"name", "cat", "id", "parent", "trace", "ts", "dur", "cpu",
     "pid", "tid", "attrs"}

``ts`` is epoch seconds (comparable across processes), ``dur``/``cpu``
are seconds measured with ``perf_counter``/``process_time``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: the span-id sequence of this process (see design constraint 2)
_SEQ = itertools.count()


class NullSpan:
    """The disabled-tracer span: one shared instance, every operation
    a no-op.  ``is_recording`` lets call sites skip attribute work."""

    __slots__ = ()

    is_recording = False
    span_id = None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        return self


#: The single shared no-op span every disabled call site receives.
NULL_SPAN = NullSpan()


@dataclass(frozen=True)
class TraceContext:
    """Picklable parent pointer handed to pool workers.

    ``pid`` disambiguates thread-pool shards (same process: record
    straight into the live tracer) from process-pool shards (fresh
    collecting tracer, spans marshalled back with the result).
    """

    trace_id: str
    span_id: str
    pid: int


class Span:
    """One timed stage.  Use as a context manager; attributes added
    with :meth:`set` land in the exported ``attrs`` mapping."""

    __slots__ = ("name", "category", "span_id", "parent_id", "trace_id",
                 "attrs", "pid", "tid", "_tracer", "_ts", "_t0", "_c0")

    is_recording = True

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 span_id: str, parent_id: Optional[str],
                 attrs: Dict[str, Any]):
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = tracer.trace_id
        self.attrs = attrs
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._tracer = tracer
        self._ts = 0.0
        self._t0 = 0.0
        self._c0 = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._ts = time.time()
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self, dur, cpu)
        return False


class Tracer:
    """Records finished spans (as dicts, completion order) for one
    trace.  Thread-safe; one tracer serves every thread of a process.

    ``root_parent`` seeds the parent of top-level spans — worker-side
    tracers set it to the dispatching shard's :class:`TraceContext`
    span id so marshalled spans stitch under the parent scan span.
    """

    is_recording = True

    def __init__(self, trace_id: Optional[str] = None,
                 root_parent: Optional[str] = None):
        if trace_id is None:
            trace_id = f"t{os.getpid():x}-{int(time.time() * 1e6):x}"
        self.trace_id = trace_id
        self.root_parent = root_parent
        self._spans: List[Dict[str, Any]] = []
        #: span id -> positions in ``_spans`` of the records with that
        #: id, and of the records it parents: :meth:`subtree` walks
        #: these instead of rescanning every finished span
        self._by_id: Dict[str, List[int]] = {}
        self._children: Dict[Optional[str], List[int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str = "repro",
             parent: Optional[str] = None, **attrs) -> Span:
        """Open a span.  ``parent`` overrides the thread's current
        span (used when adopting a marshalled :class:`TraceContext`)."""
        if parent is None:
            stack = self._stack()
            parent = stack[-1].span_id if stack else self.root_parent
        span_id = f"{os.getpid():x}-{next(_SEQ):x}"
        return Span(self, name, category, span_id, parent, attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span, dur: float, cpu: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = {
            "name": span.name,
            "cat": span.category,
            "id": span.span_id,
            "parent": span.parent_id,
            "trace": span.trace_id,
            "ts": span._ts,
            "dur": dur,
            "cpu": cpu,
            "pid": span.pid,
            "tid": span.tid,
            "attrs": span.attrs,
        }
        with self._lock:
            self._record(record)

    def _record(self, record: Dict[str, Any]) -> None:
        """Append one finished span and index it (caller holds the
        lock)."""
        position = len(self._spans)
        self._spans.append(record)
        self._by_id.setdefault(record["id"], []).append(position)
        self._children.setdefault(record["parent"], []).append(position)

    # -- context propagation -----------------------------------------------

    def current_context(self) -> Optional[TraceContext]:
        """The calling thread's innermost open span as a picklable
        parent pointer, or ``None`` outside any span."""
        stack = self._stack()
        if not stack:
            return None
        return TraceContext(self.trace_id, stack[-1].span_id,
                            os.getpid())

    def adopt(self, spans: List[Dict[str, Any]]) -> None:
        """Stitch spans marshalled back from a worker process into
        this trace, preserving their order."""
        with self._lock:
            for record in spans:
                self._record(record)

    # -- queries -----------------------------------------------------------

    def finished(self) -> List[Dict[str, Any]]:
        """All finished spans (completion order), adopted included."""
        with self._lock:
            return list(self._spans)

    def subtree(self, span_id: str) -> List[Dict[str, Any]]:
        """The span with ``span_id`` plus every (transitive) child,
        in recorded order — the ``ScanReport.trace`` view.  Walks the
        parent index, so the cost is the subtree's size, not the
        trace's."""
        with self._lock:
            reached = {span_id}
            pending = [span_id]
            while pending:
                for position in self._children.get(pending.pop(), ()):
                    child = self._spans[position]["id"]
                    if child not in reached:
                        reached.add(child)
                        pending.append(child)
            return [self._spans[position] for position in sorted(
                position for span in reached
                for position in self._by_id.get(span, ()))]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._by_id.clear()
            self._children.clear()
