"""Incremental recompilation (repro.core.incremental)."""

import repro
from repro.core.engine import BitGenEngine
from repro.core.incremental import group_signature, update_engine
from repro.parallel.config import ScanConfig

CONFIG = ScanConfig(grouping="fingerprint", loop_fallback=True)
RULES = [f"rule{i:03d}[0-9]+x" for i in range(40)]
DATA = b"hit rule007 42x and rule039 9x plus added55q " * 10


def test_one_pattern_diff_reuses_almost_everything():
    engine = BitGenEngine.compile(RULES, config=CONFIG)
    updated, report = update_engine(engine, RULES + ["added[0-9]+q"])
    assert report.patterns == len(RULES) + 1
    assert report.recompiled >= 1
    assert report.reused >= report.groups - 2
    assert updated.pattern_count == len(RULES) + 1


def test_update_parses_only_new_patterns(monkeypatch):
    import repro.core.incremental as incremental

    engine = BitGenEngine.compile(RULES, config=CONFIG)
    real_parse = incremental.parse
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(incremental, "parse", counting_parse)
    updated, _ = update_engine(engine, RULES + ["added[0-9]+q"])
    assert parsed == ["added[0-9]+q"]
    assert all(new is old for new, old
               in zip(updated._nodes, engine._nodes))
    assert updated._texts == RULES + ["added[0-9]+q"]


def test_update_results_match_cold_compile():
    engine = BitGenEngine.compile(RULES, config=CONFIG)
    new_rules = RULES[1:] + ["added[0-9]+q"]
    updated, _ = update_engine(engine, new_rules)
    cold = BitGenEngine.compile(new_rules, config=CONFIG)
    assert updated.match(DATA).ends == cold.match(DATA).ends


def test_identical_set_reuses_every_group():
    engine = BitGenEngine.compile(RULES, config=CONFIG)
    updated, report = update_engine(engine, list(RULES))
    assert report.recompiled == 0
    assert report.reused == report.groups
    assert updated.match(DATA).ends == engine.match(DATA).ends


def test_compile_key_change_forces_full_recompile():
    engine = BitGenEngine.compile(RULES, config=CONFIG)
    updated, report = update_engine(
        engine, RULES, config=CONFIG.replace(opt_level=1))
    assert report.reused == 0
    assert updated.config.opt_level == 1
    assert updated.match(DATA).ends == engine.match(DATA).ends


def test_donor_engine_not_mutated():
    engine = BitGenEngine.compile(RULES, config=CONFIG)
    before = [c.program for c in engine.groups]
    update_engine(engine, RULES[:10])
    assert [c.program for c in engine.groups] == before
    assert engine.pattern_count == len(RULES)


def test_group_signature_is_positional_content():
    engine = BitGenEngine.compile(RULES, config=CONFIG)
    nodes = engine._nodes
    sig = group_signature(nodes, engine.groups[0].group)
    assert all(isinstance(part, str) for part in sig)
    assert len(sig) == len(engine.groups[0].group.indices)


def test_matcher_update_in_place():
    matcher = repro.compile(RULES, config=CONFIG)
    baseline = matcher.scan(DATA).match_count()
    report = matcher.update(RULES + ["added[0-9]+q"])
    assert report.reused > 0
    assert matcher.pattern_count == len(RULES) + 1
    updated = matcher.scan(DATA)
    assert updated.match_count() > baseline          # "added55q" hits
    cold = repro.scan(RULES + ["added[0-9]+q"], DATA, config=CONFIG)
    assert updated.to_dict()["matches"] == cold.to_dict()["matches"]


def test_reuse_counter_increments():
    from repro.core.incremental import _REUSED

    engine = BitGenEngine.compile(RULES, config=CONFIG)
    before = _REUSED.value()
    _, report = update_engine(engine, RULES + ["added[0-9]+q"])
    assert _REUSED.value() == before + report.reused


def test_host_refresh_uses_donor():
    from repro.serve.host import EngineHost

    host = EngineHost()
    first = host.acquire("tenant", RULES, config=CONFIG)
    refreshed = host.refresh("tenant", RULES + ["added[0-9]+q"],
                             config=CONFIG)
    assert refreshed.fingerprint != first.fingerprint
    update = refreshed.extra.get("update")
    assert update is not None and update["reused"] > 0
    # the old engine stays resident and untouched
    assert host.get("tenant", first.fingerprint) is first
    assert first.matcher.pattern_count == len(RULES)
    # refresh of a resident set is a plain hit
    again = host.refresh("tenant", RULES + ["added[0-9]+q"],
                         config=CONFIG)
    assert again is refreshed


def test_host_refresh_without_donor_compiles_cold():
    from repro.serve.host import EngineHost

    host = EngineHost()
    hosted = host.refresh("fresh-tenant", RULES[:5], config=CONFIG)
    assert "update" not in hosted.extra
    assert hosted.matcher.pattern_count == 5
