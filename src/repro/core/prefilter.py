"""Literal prefiltering for the main BitGen pipeline.

At rule-set scale the dominant waste is executing every group's
bitstream kernel on inputs that cannot possibly match most of them.
This module promotes the Hyperscan engine's decomposition insight into
the BitGen dispatch path: at index-build time each compiled group gets
a *gate* — a set of literals such that every non-empty match of any
member pattern contains at least one gate literal
(:func:`repro.regex.factors.factor_literals`, computed on exactly the
prepared AST the lowering consumed, so the gate and the kernel agree
about what a match is).  Groups containing any factor-free pattern are
**always-on**: the gate never guesses.

At scan time one pass over the input decides which gate literals fire;
only groups whose gate fired (plus the always-on ones) execute.
Soundness: a skipped group's kernel could only have produced matches
containing one of its gate literals, and none occurred in the input —
so every skipped output stream is all-zero and the gated result is
bit-identical to full execution (the differential fuzz suite enforces
this against the ungated serial path).

Two gate implementations, selected by ``ScanConfig.prefilter_impl``:

* ``"screen"`` (default) — sorted-window prefix screen.  The index
  stores each literal's first ``min(len, 8)`` bytes as a big-endian
  ``uint64`` range ``[lo, hi]`` (prefix padded with 0x00 / 0xff).  A
  scan keeps the input offsets whose byte starts some literal
  (literals are never empty), sorts one big-endian 8-byte key per
  kept offset (the tail zero-padded) and one vectorised
  ``searchsorted`` tests every range.  Exact: an occurrence puts the
  literal's real prefix bytes into the key at its offset, so no
  occurring literal is screened out; padding and shared prefixes only
  add candidates, which exact substring search (``lit in data``)
  confirms.  The transient is one ``uint64`` key per kept offset.
* ``"ac"`` — one pass of the shared Aho–Corasick automaton over the
  input (:mod:`repro.automata.aho_corasick`).  The reference
  implementation: linear in the input regardless of literal count,
  and the oracle the screen is differentially tested against.

Either way the group walk costs O(fired literals + active groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..automata.aho_corasick import AhoCorasick
from ..parallel.config import PREFILTER_IMPLS
from ..regex import ast
from ..regex.factors import factor_literals
from ..regex.nonempty import strip_empty
from ..regex.simplify import simplify

#: bytes of each literal's prefix the screen compares (one uint64 key)
WINDOW = 8

_REG = obs.registry()
_BUCKETS_SKIPPED = _REG.counter(
    "repro_prefilter_buckets_skipped_total",
    "Compiled groups skipped because no gate literal fired")
_PREFILTER_SCANS = _REG.counter(
    "repro_prefilter_scans_total",
    "Prefilter gate evaluations, by implementation")


@dataclass
class PrefilterReport:
    """What one gate evaluation decided (``engine.last_prefilter``)."""

    impl: str
    input_bytes: int
    #: total compiled groups in the engine
    groups: int
    #: groups with a literal gate (the rest are always-on)
    gated: int
    #: groups that executed (always-on + fired)
    active: int
    #: gated groups whose literals did not occur
    skipped: int
    #: distinct gate literals in the index
    literals: int
    #: gate literals that occurred in the input
    fired: int

    def to_dict(self) -> Dict[str, int]:
        return {"impl": self.impl, "input_bytes": self.input_bytes,
                "groups": self.groups, "gated": self.gated,
                "active": self.active, "skipped": self.skipped,
                "literals": self.literals, "fired": self.fired}


def pattern_gate(node: ast.Regex) -> Optional[frozenset]:
    """The literal gate of one pattern AST, computed on the *prepared*
    node (``strip_empty(simplify(node))``) the lowering consumed.

    ``None`` means no usable factor (the pattern stays always-on);
    an empty frozenset means the pattern has no non-empty matches at
    all (its output stream is always zero, so its group may be gated
    on the other members alone)."""
    prepared = strip_empty(simplify(node))
    if prepared is None:
        return frozenset()
    return factor_literals(simplify(prepared))


def _window_keys(data: bytes, offsets: np.ndarray) -> np.ndarray:
    """One big-endian key per offset in ``offsets``: the ``WINDOW``
    bytes of ``data`` starting there, zero-padded past the end."""
    # overlapping unaligned big-endian windows straight off the buffer
    windows = np.ndarray((len(data),), ">u8", data + bytes(WINDOW - 1),
                         strides=(1,))
    return windows[offsets].astype(np.uint64)


class PrefilterIndex:
    """Per-engine gate index: one literal set per compiled group plus
    the shared scan structures (AC automaton, prefix ranges, and the
    literal -> gated-groups map)."""

    def __init__(self, group_gates: List[Optional[frozenset]]):
        self.group_gates = group_gates
        #: sorted for deterministic AC slot assignment
        self.literals: List[bytes] = sorted(
            set().union(*(gate for gate in group_gates if gate)))
        self.ac: Optional[AhoCorasick] = (
            AhoCorasick.build(self.literals) if self.literals else None)
        #: each literal's prefix as a big-endian key range [lo, hi]
        self._lo, self._hi = (np.array(
            [int.from_bytes(lit[:WINDOW].ljust(WINDOW, pad), "big")
             for lit in self.literals], dtype=np.uint64)
            for pad in (b"\0", b"\xff"))
        #: byte -> whether some literal starts with it
        self._starts = np.zeros(256, dtype=bool)
        self._starts[[lit[0] for lit in self.literals]] = True
        slot = {lit: index for index, lit in enumerate(self.literals)}
        #: literal slot -> indices of the gated groups it activates
        self._opens: List[List[int]] = [[] for _ in self.literals]
        self._always_on: List[int] = []
        for index, gate in enumerate(group_gates):
            if gate is None:
                self._always_on.append(index)
            for lit in gate or ():
                self._opens[slot[lit]].append(index)

    @classmethod
    def build(cls, nodes: Sequence[ast.Regex],
              groups: Sequence[object]) -> "PrefilterIndex":
        """Gate index for ``groups`` (RegexGroup-like, ``.indices``)
        over the original pattern ``nodes``.  A group is gated only
        when *every* member has a usable factor set."""
        with obs.span("prefilter.build", category="compile",
                      patterns=len(nodes), groups=len(groups)):
            member_gates = [pattern_gate(node) for node in nodes]
            group_gates: List[Optional[frozenset]] = []
            for group in groups:
                gates = [member_gates[i] for i in group.indices]
                group_gates.append(None if None in gates
                                   else frozenset().union(*gates))
            return cls(group_gates)

    @property
    def gated_groups(self) -> int:
        return len(self.group_gates) - len(self._always_on)

    # -- gate evaluation ---------------------------------------------------

    def fired_literals(self, data: bytes, impl: str = "screen"
                       ) -> Set[bytes]:
        """The subset of index literals occurring in ``data``."""
        return {self.literals[slot] for slot in self._fired(data, impl)}

    def _fired(self, data: bytes, impl: str) -> Set[int]:
        """Slots of the literals occurring in ``data``."""
        if impl not in PREFILTER_IMPLS:
            raise ValueError(f"unknown prefilter impl {impl!r}; "
                             f"expected one of {PREFILTER_IMPLS}")
        if not self.literals or not data:
            return set()
        if impl == "ac":
            hits, _stats = self.ac.scan(data)
            return {slot for slot, _end in hits}
        offsets = np.flatnonzero(
            self._starts[np.frombuffer(data, dtype=np.uint8)])
        if not offsets.size:
            return set()
        keys = _window_keys(data, offsets)
        keys.sort()
        # the first key >= lo (clamped): a candidate iff within [lo, hi]
        found = keys[np.minimum(np.searchsorted(keys, self._lo),
                                len(keys) - 1)]
        candidates = np.flatnonzero((self._lo <= found) & (found <= self._hi))
        # exact confirmation: the screen only prunes candidates
        return {slot for slot in candidates.tolist()
                if self.literals[slot] in data}

    def active_groups(self, data: bytes, impl: str = "screen"
                      ) -> Tuple[List[int], PrefilterReport]:
        """Indices of groups that must execute on ``data`` plus the
        accounting report.  Always-on groups (gate ``None``) are always
        included; a gated group executes iff any of its literals
        occurred."""
        with obs.span("prefilter", category="exec", impl=impl,
                      input_bytes=len(data)) as sp:
            fired = self._fired(data, impl)
            opened = {group for slot in fired for group in self._opens[slot]}
            active = sorted(opened.union(self._always_on))
            skipped = self.gated_groups - len(opened)
            report = PrefilterReport(
                impl=impl, input_bytes=len(data),
                groups=len(self.group_gates), gated=self.gated_groups,
                active=len(active), skipped=skipped,
                literals=len(self.literals), fired=len(fired))
            if sp.is_recording:
                sp.set(active=len(active), skipped=skipped,
                       fired=len(fired))
        _PREFILTER_SCANS.inc(impl=impl)
        if skipped:
            _BUCKETS_SKIPPED.inc(skipped)
        return active, report
