"""Incremental recompilation for evolving rule sets.

Rule sets at scale change by small diffs — a handful of signatures
added or retired against thousands that stay put.  Recompiling the
whole set on every diff makes update latency proportional to set size;
this module makes it proportional to the *diff*.

The unit of reuse is the compiled group.  Since
:meth:`~repro.core.engine.BitGenEngine._compile_group` names outputs
by local position (``R0..Rk-1``), a group's program depends only on
its member ASTs and the compile-relevant config — not on where those
patterns sit in the rule set.  So a group whose member sequence is
unchanged between the old and new sets keeps its program, barrier
plan, and optimizer report verbatim (only the index-mapping
:class:`~repro.core.grouping.RegexGroup` is rebuilt), and the on-disk
kernel cache then skips codegen for any *recompiled* group whose
kernel fingerprint is already cached.  Patterns are not re-parsed
either: each unchanged pattern text keeps the donor's AST (nodes are
immutable), and only new texts go through the parser.

Reuse requires the old and new :meth:`ScanConfig.compile_key` to be
equal — a changed scheme, opt level, or backend invalidates every
artefact.  ``grouping="fingerprint"`` maximises the hit rate:
its deterministic shape-bucket chunking keeps untouched patterns in
the same groups across small diffs, whereas ``"balanced"`` re-sorts
globally and a single added pattern can reshuffle every group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..parallel.config import ScanConfig
from ..regex import ast
from ..regex.parser import parse
from .engine import DEFAULT_CTA_COUNT, BitGenEngine, CompiledGroup
from .grouping import RegexGroup, group_regexes

_REG = obs.registry()
_REUSED = _REG.counter(
    "repro_compile_reused_total",
    "Compiled groups reused verbatim by incremental recompilation")
_RECOMPILED = _REG.counter(
    "repro_compile_recompiled_total",
    "Compiled groups rebuilt by incremental recompilation")


@dataclass
class UpdateReport:
    """Accounting of one incremental update."""

    patterns: int
    groups: int
    #: groups whose compiled artefact was reused verbatim
    reused: int
    #: groups that went through the full compile pipeline
    recompiled: int
    seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {"patterns": self.patterns, "groups": self.groups,
                "reused": self.reused, "recompiled": self.recompiled,
                "seconds": self.seconds}


def _members(nodes: Sequence[ast.Regex],
             group: RegexGroup) -> Tuple[ast.Regex, ...]:
    """The reuse key of one group: its member ASTs, in order.  AST
    nodes compare and hash structurally, so equal keys mean the members
    lower to the identical program under local naming."""
    return tuple(nodes[i] for i in group.indices)


def group_signature(nodes: Sequence[ast.Regex],
                    group: RegexGroup) -> Tuple[str, ...]:
    """A group's reuse key in printable form: each member's ``repr``,
    which is value-based like the nodes' equality."""
    return tuple(repr(node) for node in _members(nodes, group))


def update_engine(engine: BitGenEngine,
                  patterns: Sequence[Union[str, ast.Regex]],
                  config: Optional[ScanConfig] = None,
                  ) -> Tuple[BitGenEngine, UpdateReport]:
    """Compile ``patterns`` into a fresh engine, reusing every
    compiled group of ``engine`` whose member sequence (and compile
    key) is unchanged.  ``engine`` is not mutated; the returned engine
    is a complete replacement.

    Falls back to compiling every group (still through the shared
    kernel caches) when ``engine`` has no retained ASTs or the compile
    keys differ — the result is always equivalent to a cold
    :meth:`BitGenEngine.compile` of ``patterns``.
    """
    if config is None:
        config = engine.config
    begin = time.perf_counter()
    with obs.span("compile.incremental", category="compile",
                  patterns=len(patterns)) as sp:
        # Texts the donor already parsed keep its nodes.
        parsed: Dict[str, ast.Regex] = {
            text: node for text, node
            in zip(engine._texts or (), engine._nodes or ())
            if text is not None}
        texts = [p if isinstance(p, str) else None for p in patterns]
        nodes = []
        for pattern, text in zip(patterns, texts):
            if text is not None and text not in parsed:
                parsed[text] = parse(text)
            nodes.append(pattern if text is None else parsed[text])
        cta_count = config.cta_count
        if cta_count is None:
            cta_count = min(DEFAULT_CTA_COUNT, max(1, len(nodes)))
        groups = group_regexes(nodes, cta_count,
                               strategy=config.grouping)

        donors: Dict[Tuple[ast.Regex, ...], List[CompiledGroup]] = {}
        if (engine._nodes is not None
                and engine.config.compile_key() == config.compile_key()):
            for old in engine.groups:
                donors.setdefault(_members(engine._nodes, old.group),
                                  []).append(old)

        compiled: List[CompiledGroup] = []
        reused = 0
        for index, group in enumerate(groups):
            pool = donors.get(_members(nodes, group))
            if pool:
                donor = pool.pop()
                # New RegexGroup (fresh global indices), old artefact:
                # local output naming makes the program/plan portable.
                compiled.append(CompiledGroup(
                    group, donor.program, donor.barrier_plan,
                    donor.opt_report))
                reused += 1
            else:
                members = [nodes[i] for i in group.indices]
                compiled.append(BitGenEngine._compile_group(
                    members, group, config, index))
        recompiled = len(groups) - reused
        if sp.is_recording:
            sp.set(groups=len(groups), reused=reused,
                   recompiled=recompiled)
    if reused:
        _REUSED.inc(reused)
    if recompiled:
        _RECOMPILED.inc(recompiled)
    report = UpdateReport(
        patterns=len(nodes), groups=len(groups), reused=reused,
        recompiled=recompiled, seconds=time.perf_counter() - begin)
    return (BitGenEngine(compiled, len(nodes), nodes=nodes,
                         config=config, texts=texts),
            report)
