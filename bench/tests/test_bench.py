"""Tests of the benchmark itself: ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from repro.automata.nfa import MultiPatternNFA  # noqa: E402
from repro.regex.parser import parse  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {row["name"] for row in SPEC["end_to_end"]}
LAYERS = {row["name"] for row in SPEC["per_layer"]}
#: a seed no other run uses, so corrupting its reference is harmless
PRIVATE_SEED = 990001


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced_smoke():
    done = run_bench("--smoke", "--trace", "--seed", "0")
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout.splitlines()


def test_smoke_prints_only_benchmark_names(traced_smoke):
    result = json.loads(traced_smoke[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(workloads.NAMES)
    for metrics in result["metrics"].values():
        assert set(metrics) == LAYERS
    printed = {m.group(1) for line in traced_smoke[:-1]
               if (m := re.match(r"  ([a-z][\w.]*) +[-+0-9.e]+ \S+$", line))}
    assert E2E <= printed
    assert printed <= E2E | LAYERS


def test_workload_mode_prints_one_result_object():
    done = run_bench("--smoke", "--workload", "ruleset-1k", "--seed", "0",
                     "--trace", "0")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == E2E
    for row in result["metrics"].values():
        assert set(row) == {"value", "unit"} and row["value"] > 0


def test_corrupted_reference_fails_the_run():
    path = reference.cache_path(BENCH / ".cache", "bulk-snort",
                                PRIVATE_SEED, True)
    try:
        first = run_bench("--smoke", "--workload", "bulk-snort",
                          "--seed", str(PRIVATE_SEED))
        assert first.returncode == 0, first.stderr[-3000:]
        cached = json.loads(path.read_text())
        ends = cached["ends"]["main"][0]
        pattern = next(iter(ends))
        ends[pattern] = ends[pattern][1:] or [0]
        path.write_text(json.dumps(cached))
        second = run_bench("--smoke", "--workload", "bulk-snort",
                           "--seed", str(PRIVATE_SEED))
        assert second.returncode == 1
        assert json.loads(second.stdout.splitlines()[-1])["correct"] is False
        assert "MISMATCH" in second.stdout
    finally:
        path.unlink(missing_ok=True)


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "out",
                                                  "__pycache__"))
    done = run_bench("--seed", "0", cwd=tmp_path)
    assert done.returncode == 2
    assert "no program source" in done.stderr
    assert not done.stdout.strip()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reference_equals_multipattern_nfa_run(name):
    workload = workloads.build(name, 0, smoke=True)
    for patterns, inputs in workload.tenants.values():
        data = inputs[0][:2048]
        matches, _ = MultiPatternNFA.build(
            [parse(p) for p in patterns]).run(data)
        want = {str(p): sorted(set(e)) for p, e in matches.items() if e}
        assert reference.nfa_ends(patterns, [data]) == [want]


def test_reference_prefix_keeps_ends_inside_the_prefix():
    ends = {"0": [1, 5, 9], "3": [12]}
    assert reference.prefix(ends, 10) == {"0": [1, 5, 9]}


def test_inputs_depend_on_the_seed_only():
    for name in workloads.NAMES:
        a = workloads.build(name, 4, smoke=True)
        b = workloads.build(name, 4, smoke=True)
        c = workloads.build(name, 5, smoke=True)
        assert reference.digest(a.tenants) == reference.digest(b.tenants)
        assert reference.digest(a.tenants) != reference.digest(c.tenants)


def test_compare_verdicts():
    rng = random.Random(0)
    base = [1.0 + rng.uniform(-0.01, 0.01) for _ in range(5)]
    slower = [x * 1.3 for x in base]
    faster = [x * 0.8 for x in base]
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    assert compare.verdict(base, base, "lower", 0.1)["verdict"] == "same"
    assert compare.verdict(base, slower, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(base, slower, "higher", 0.1)["verdict"] == "better"
    assert compare.verdict(base, noisy, "lower", 0.1)["verdict"] \
        == "unresolved"


@pytest.mark.parametrize("key, other", [("seconds", 3.0), ("smoke", True),
                                        ("seed", 1)])
def test_compare_refuses_runs_with_other_settings(tmp_path, capsys, key,
                                                  other):
    e2e = {row["name"]: 1.0 for row in SPEC["end_to_end"]}
    env = {"seconds": 10.0, "smoke": False, "seed": 0}

    def write(name, envs):
        path = tmp_path / name
        path.write_text("".join(
            json.dumps({"workload": "bulk-snort", "e2e": e2e, "env": e})
            + "\n" for e in envs))
        return str(path)

    same = write("same.jsonl", [env] * 3)
    assert compare.main([same, same]) == 0
    changed = dict(env, **{key: other})
    for a, b in ((same, write("b.jsonl", [changed] * 3)),
                 (write("mixed.jsonl", [env, changed, env]), same)):
        assert compare.main([a, b]) == 2
        assert key in capsys.readouterr().err
