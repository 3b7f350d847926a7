"""The independent correctness reference and its on-disk cache.

Expected match ends come from :class:`repro.automata.nfa.MultiPatternNFA`
(Glushkov automata), which shares only the regex parser with the
bitstream engine.  ``MultiPatternNFA.run`` visits every start state at
every byte, which takes seconds per 16 KiB at 1000 patterns, so
:func:`nfa_ends` steps the same automaton as a lazily built DFA: each
set of active states becomes one cached state and each (state, byte)
transition is computed once from the NFA's classes, successors and
reports.  The results equal ``MultiPatternNFA.run``'s with duplicate
ends removed (``bench/tests`` checks this).

References are cached per (workload, seed, size) under ``bench/.cache``
and computed by the runner before the workload process starts, so they
stay out of every timed window and out of ``setup_s``.  A cache file
whose inputs digest no longer matches is recomputed; one whose results
were altered is trusted, and the run fails on the mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Sequence

from repro.automata.nfa import MultiPatternNFA
from repro.regex.parser import parse

#: ends per pattern id, as JSON keys (the wire format's shape)
Ends = Dict[str, List[int]]


def nfa_ends(patterns: Sequence[str],
             streams: Sequence[bytes]) -> List[Ends]:
    """All-match end positions of ``patterns`` in each stream."""
    nfa = MultiPatternNFA.build([parse(p) for p in patterns])
    tables = [cc.table() for cc in nfa.classes]
    start = frozenset(nfa.start_states)
    state_ids = {frozenset(): 0}
    states = [frozenset()]
    transitions: Dict[int, tuple] = {}
    results: List[Ends] = []
    for data in streams:
        current = 0
        ends: Dict[int, List[int]] = {}
        for position, byte in enumerate(data):
            step = transitions.get((current << 8) | byte)
            if step is None:
                successors = set()
                reported = set()
                for state in states[current] | start:
                    if tables[state][byte]:
                        reported.update(nfa.reports.get(state, ()))
                        successors.update(nfa.successors[state])
                target = frozenset(successors)
                target_id = state_ids.setdefault(target, len(states))
                if target_id == len(states):
                    states.append(target)
                step = (target_id, tuple(sorted(reported)))
                transitions[(current << 8) | byte] = step
            current, reported = step
            for pattern in reported:
                ends.setdefault(pattern, []).append(position)
        results.append({str(p): e for p, e in sorted(ends.items())})
    return results


def digest(tenants: Dict[str, tuple]) -> str:
    """Identity of a workload's rule sets and inputs."""
    h = hashlib.sha256()
    for tenant, (patterns, inputs) in sorted(tenants.items()):
        h.update(tenant.encode() + b"\x00")
        for pattern in patterns:
            h.update(pattern.encode() + b"\x00")
        for data in inputs:
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def cache_path(cache_dir: Path, workload: str, seed: int,
               smoke: bool) -> Path:
    return cache_dir / f"{workload}-s{seed}{'-smoke' if smoke else ''}.json"


def ensure(path: Path, tenants: Dict[str, tuple]) -> Path:
    """Make ``path`` hold the reference of ``tenants`` (tenant -> list
    of Ends, one per input) unless it already does."""
    want = digest(tenants)
    if path.exists():
        try:
            if json.loads(path.read_text()).get("digest") == want:
                return path
        except ValueError:
            pass
    payload = {"digest": want,
               "ends": {tenant: nfa_ends(patterns, inputs)
                        for tenant, (patterns, inputs) in tenants.items()}}
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_suffix(f".tmp{os.getpid()}")
    staging.write_text(json.dumps(payload))
    os.replace(staging, path)
    return path


def load(path: Path) -> Dict[str, List[Ends]]:
    return json.loads(path.read_text())["ends"]


def prefix(ends: Ends, length: int) -> Ends:
    """The reference of the first ``length`` bytes of a stream: match
    ends depend only on the bytes up to them."""
    out = {}
    for pattern, positions in ends.items():
        kept = [p for p in positions if p < length]
        if kept:
            out[pattern] = kept
    return out
