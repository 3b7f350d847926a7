"""The four workloads' inputs, generated from ``--seed``.

Each workload pairs fixed rule sets (part of the workload's definition,
like a deployed signature file) with traffic drawn from the seed.  The
rule sets are fixed because the cost of a scan depends far more on the
rules than on the traffic: across six Snort rule seeds the scan time of
one 256 KiB input ranged over 60%, across traffic seeds over a few
percent, and a benchmark whose seed changes the work cannot tell a
regression from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.automata.nfa import MultiPatternNFA
from repro.regex.parser import parse
from repro.workloads import generators as gen
from repro.workloads.apps import SNORT
from repro.workloads.inputs import build_input, network_background

NAMES = ("bulk-snort", "ruleset-1k", "serve-scan", "serve-stream")

#: the seed every fixed rule set is drawn from
RULE_SEED = 0
#: streaming sessions: chunks per session and bytes per chunk
FEEDS_PER_SESSION = 32
CHUNK_BYTES = 512
#: Bro217-generator rule sets: patterns per set, the length budget of
#: each, and the Glushkov state count every set is drawn to have.  Scan
#: and compile cost follow the state count, so equal counts keep the
#: tenants' costs alike: the latency distribution has one mode, and its
#: median does not flip between the modes of cheap and costly tenants.
BRO_PATTERNS = 8
BRO_LENGTH = 30
BRO_STATES = 130


@dataclass
class Workload:
    name: str
    #: tenant -> (patterns, inputs).  In-process workloads have one
    #: tenant; inputs are whole scans or, for serve-stream, whole
    #: session streams that are fed in CHUNK_BYTES chunks.
    tenants: Dict[str, Tuple[List[str], List[bytes]]]
    #: streaming sessions: feeds per session (smoke runs use fewer)
    feeds_per_session: int = FEEDS_PER_SESSION


def snort_rules(smoke: bool) -> List[str]:
    """The Snort generator at 93 patterns (the paper's Table 2 cell
    scale); 18 in smoke runs."""
    scale = 0.01 if smoke else 0.05
    return SNORT.build(scale=scale, input_bytes=int(1024 / scale),
                       seed=RULE_SEED).patterns


def synthetic_rules(count: int) -> List[str]:
    """Signature-shaped rules: each anchored on a distinctive literal
    except every 50th, a factor-free pattern (the shape of
    ``benchmarks/bench_ruleset_scale.py``)."""
    return [f"[a-y][a-y0-9]*z{index % 7}q" if index % 50 == 49
            else f"sig{index:05d}[0-9]+x" for index in range(count)]


def bro_rules(key: str) -> List[str]:
    """A Bro217-generator rule set (bounded match length) with
    BRO_STATES Glushkov states: the first candidate set, drawn from
    ``key``, that has exactly that many."""
    for attempt in range(10000):
        rng = random.Random(f"bro:{key}:{attempt}")
        rules = [gen.bro_pattern(rng, BRO_LENGTH)
                 for _ in range(BRO_PATTERNS)]
        nfa = MultiPatternNFA.build([parse(p) for p in rules])
        if nfa.state_count == BRO_STATES:
            return rules
    raise RuntimeError(f"no {BRO_STATES}-state rule set for {key!r}")


def tenant_rules(tenant: int) -> List[str]:
    return bro_rules(f"{RULE_SEED}:{tenant}")


def admin_rules(seed: int, index: int) -> List[str]:
    """The ``index``-th fresh rule set serve-stream's admin tenant
    compiles."""
    return bro_rules(f"admin:{seed}:{index}")


def _signature_input(rng: random.Random, size: int, rule_count: int,
                     hits: int) -> bytes:
    data = bytearray(network_background(rng, size))
    for _ in range(hits):
        index = rng.randrange(rule_count)
        if index % 50 == 49:
            index -= 1
        digits = rng.randrange(10 ** rng.randint(1, 4))
        piece = f"sig{index:05d}{digits}x".encode()
        offset = rng.randrange(size - len(piece))
        data[offset:offset + len(piece)] = piece
    return bytes(data)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "bulk-snort":
        rules = snort_rules(smoke)
        nodes = [parse(p) for p in rules]
        size = 16384 if smoke else 262144
        data = build_input(rng, size, "network", nodes, 1.0)
        return Workload(name, {"main": (rules, [data])})
    if name == "ruleset-1k":
        count = 100 if smoke else 1000
        rules = synthetic_rules(count)
        inputs = [_signature_input(rng, 4096 if smoke else 16384, count, 4)
                  for _ in range(4 if smoke else 32)]
        return Workload(name, {"main": (rules, inputs)})
    if name == "serve-scan":
        tenants = {}
        for index in range(4):
            rules = tenant_rules(index)
            nodes = [parse(p) for p in rules]
            tenants[f"t{index}"] = (rules, [
                build_input(rng, 1536, "network", nodes, 2.0)
                for _ in range(4 if smoke else 32)])
        return Workload(name, tenants)
    if name == "serve-stream":
        feeds = 8 if smoke else FEEDS_PER_SESSION
        tenants = {}
        for index in range(4):
            rules = tenant_rules(index)
            nodes = [parse(p) for p in rules]
            tenants[f"t{index}"] = (rules, [
                build_input(rng, feeds * CHUNK_BYTES, "network", nodes, 1.0)
                for _ in range(2 if smoke else 4)])
        return Workload(name, tenants, feeds_per_session=feeds)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
