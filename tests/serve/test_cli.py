"""``python -m repro serve`` — exit codes and the self-test smoke.

Contract: ``--self-test`` is the end-to-end proof (real subprocess,
real TCP, exit 0 on bit-identical round-trips); bad usage exits 2
(argparse); the parser wires CLI flags into ServeConfig faithfully.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.serve.cli import build_serve_parser, serve_config_from_args

REPO = Path(__file__).resolve().parent.parent.parent


def run_cli(*argv: str, timeout: float = 120.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=str(REPO))


def test_self_test_exits_zero():
    proc = run_cli("--self-test")
    assert proc.returncode == 0, \
        f"stdout={proc.stdout!r} stderr={proc.stderr!r}"
    assert "self-test OK" in proc.stdout
    assert "bit-identical" in proc.stdout


def test_self_test_timeout_exits_nonzero_with_wire_code():
    proc = run_cli("--self-test", "--self-test-timeout", "0.000001")
    assert proc.returncode == 1, \
        f"stdout={proc.stdout!r} stderr={proc.stderr!r}"
    assert "self-test FAIL" in proc.stderr
    assert "deadline" in proc.stderr  # the wire error code


def test_bad_flag_exits_two():
    proc = run_cli("--backend", "quantum", "--self-test")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_flags_reach_serve_config():
    args = build_serve_parser().parse_args(
        ["--max-engines", "3", "--queue-depth", "9",
         "--max-sessions", "17", "--deadline", "1.5",
         "--workers", "2", "--executor", "thread",
         "--scheme", "SR", "--metrics-port", "0",
         "--access-log", "logs/access.jsonl",
         "--session-idle", "30", "--slo-target", "0.5",
         "--no-offload"])
    config = serve_config_from_args(args)
    assert config.max_engines == 3
    assert config.queue_depth == 9
    assert config.max_sessions == 17
    assert config.deadline_s == 1.5
    assert config.scan.workers == 2
    assert config.scan.executor == "thread"
    assert config.scan.scheme.name == "SR"
    assert config.metrics_port == 0
    assert config.access_log_path == "logs/access.jsonl"
    assert config.session_idle_s == 30
    assert config.slo_target_s == 0.5
    assert config.offload is False


def test_default_backend_is_compiled():
    config = serve_config_from_args(build_serve_parser().parse_args([]))
    assert config.scan.backend == "compiled"
    assert "default: compiled" in " ".join(
        build_serve_parser().format_help().split())
