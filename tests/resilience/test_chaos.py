"""The chaos framework: plans, the spec grammar, seeded draws, and
suppression."""

from __future__ import annotations

import pytest

from repro.resilience import chaos
from repro.resilience.chaos import (ChaosPlan, ChaosRule, InjectedFault,
                                    _ChaosState)


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    chaos.reset()
    yield
    chaos.reset()


# -- rules and plans ---------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ValueError):
        ChaosRule(site="worker.*", kind="meteor")
    with pytest.raises(ValueError):
        ChaosRule(site="worker.*", kind="exception", probability=1.5)
    with pytest.raises(ValueError):
        ChaosRule(site="worker.*", kind="exception", max_count=0)


def test_rule_site_globbing():
    rule = ChaosRule(site="worker.*", kind="exception")
    assert rule.matches("worker.stream")
    assert rule.matches("worker.cell")
    assert not rule.matches("pool.acquire")
    exact = ChaosRule(site="pool.acquire", kind="pool")
    assert exact.matches("pool.acquire")
    assert not exact.matches("pool.acquire.retry")


def test_spec_round_trip():
    plan = ChaosPlan(seed=7, rules=(
        ChaosRule(site="worker.*", kind="exception", probability=0.05),
        ChaosRule(site="pool.acquire", kind="pool", probability=0.1,
                  max_count=2)))
    spec = plan.to_spec()
    assert spec == "seed=7;worker.*:exception:0.05;pool.acquire:pool:0.1:2"
    assert ChaosPlan.parse(spec) == plan


def test_parse_rejects_malformed_specs():
    for bad in ("", "seed=7", "worker.*", "worker.*:exception:x",
                "worker.*:exception:0.5:x", "seed=x;worker.*:exception",
                "worker.*:exception:0.5:1:extra"):
        with pytest.raises(ValueError):
            ChaosPlan.parse(bad)


def test_parse_defaults():
    plan = ChaosPlan.parse("worker.stream:timeout")
    assert plan.seed == 0
    rule, = plan.rules
    assert rule.probability == 1.0
    assert rule.max_count is None


# -- seeded draws ------------------------------------------------------------


def test_same_seed_same_draw_sequence():
    plan = ChaosPlan(seed=1234, rules=(
        ChaosRule(site="worker.*", kind="exception", probability=0.3),))
    runs = []
    for _ in range(2):
        state = _ChaosState(plan)
        runs.append([state.draw("worker.stream") for _ in range(200)])
    assert runs[0] == runs[1]
    fired = sum(1 for kind in runs[0] if kind)
    assert 20 < fired < 100          # ~60 expected at p=0.3


def test_max_count_bounds_injections():
    plan = ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception", max_count=2),))
    state = _ChaosState(plan)
    kinds = [state.draw("worker.stream") for _ in range(10)]
    assert kinds.count("exception") == 2
    assert state.injections() == 2


def test_first_matching_firing_rule_wins():
    plan = ChaosPlan(rules=(
        ChaosRule(site="worker.stream", kind="timeout", max_count=1),
        ChaosRule(site="worker.*", kind="exception"),))
    state = _ChaosState(plan)
    assert state.draw("worker.stream") == "timeout"
    assert state.draw("worker.stream") == "exception"  # first rule spent
    assert state.draw("worker.group") == "exception"


# -- arming / injection ------------------------------------------------------


def test_nothing_armed_is_a_no_op():
    assert not chaos.armed()
    chaos.maybe_inject("worker.stream")   # must not raise
    assert chaos.injection_count() == 0


def test_installed_plan_injects_and_counts():
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    assert chaos.armed()
    with pytest.raises(InjectedFault, match="worker.stream"):
        chaos.maybe_inject("worker.stream")
    chaos.maybe_inject("pool.acquire")    # site not matched: no-op
    assert chaos.injection_count() == 1
    chaos.uninstall()
    assert not chaos.armed()


def test_env_spec_arms(monkeypatch):
    monkeypatch.setenv(chaos.CHAOS_ENV,
                       "seed=3;pool.acquire:pool:1.0:1")
    assert chaos.armed()
    with pytest.raises(InjectedFault):
        chaos.maybe_inject("pool.acquire")
    chaos.maybe_inject("pool.acquire")    # max_count=1 exhausted
    assert chaos.injection_count() == 1


def test_env_respec_rearms(monkeypatch):
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.*:exception:0")
    chaos.maybe_inject("worker.stream")   # p=0: never fires
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.*:exception:1")
    with pytest.raises(InjectedFault):
        chaos.maybe_inject("worker.stream")


def test_installed_plan_wins_over_env(monkeypatch):
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.*:timeout")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    with pytest.raises(InjectedFault):
        chaos.maybe_inject("worker.stream")


def test_suppress_blocks_injection():
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    with chaos.suppress():
        chaos.maybe_inject("worker.stream")   # no raise
        with chaos.suppress():
            chaos.maybe_inject("worker.stream")
        chaos.maybe_inject("worker.stream")   # still suppressed
    with pytest.raises(InjectedFault):
        chaos.maybe_inject("worker.stream")


def test_sleep_seconds_env(monkeypatch):
    monkeypatch.setenv(chaos.SLEEP_ENV, "0.125")
    assert chaos.sleep_seconds() == 0.125
    monkeypatch.setenv(chaos.SLEEP_ENV, "not-a-float")
    assert chaos.sleep_seconds() == chaos.DEFAULT_SLEEP_SECONDS
    monkeypatch.delenv(chaos.SLEEP_ENV)
    assert chaos.sleep_seconds() == chaos.DEFAULT_SLEEP_SECONDS
