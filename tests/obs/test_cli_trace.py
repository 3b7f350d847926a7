"""``python -m repro trace``: the end-to-end export path."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.__main__ import main


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.stop_tracing()
    yield
    obs.stop_tracing()


def run_trace(tmp_path, *extra):
    out = tmp_path / "out"
    argv = ["trace", "Bro217", "--scale", "0.02",
            "--input-bytes", "2048", "-o", str(out)] + list(extra)
    assert main(argv) == 0
    return out


def chrome_span_names(out) -> set:
    doc = json.loads(out.read_text())
    return {event["name"] for event in doc["traceEvents"]
            if event.get("ph") == "X"}


def test_chrome_export_contains_pipeline_spans(tmp_path, capsys):
    names = chrome_span_names(run_trace(tmp_path, "--export", "chrome"))
    # The compiled pipeline (the trace default): compile stages,
    # codegen, the scan, and kernel execution.  A compiled engine
    # lowers, then stops, so no optimizer span is recorded.
    for required in ("compile", "parse", "group", "lower", "codegen",
                     "scan", "exec", "exec.batch"):
        assert required in names, f"missing span {required!r}"
    assert "optimize" not in names
    assert not any(name.startswith("pass:") for name in names)
    assert "matches" in capsys.readouterr().out


def test_simulate_chrome_export_contains_optimizer_spans(tmp_path):
    names = chrome_span_names(run_trace(
        tmp_path, "--export", "chrome", "--backend", "simulate"))
    for required in ("compile", "lower", "optimize", "scan", "exec"):
        assert required in names, f"missing span {required!r}"
    assert any(name.startswith("pass:") for name in names)


def test_jsonl_export(tmp_path):
    out = run_trace(tmp_path, "--export", "jsonl")
    spans = [json.loads(line)
             for line in out.read_text().splitlines()]
    assert spans
    ids = [span["id"] for span in spans]
    assert len(set(ids)) == len(ids)
    assert {"name", "id", "parent", "trace", "ts", "dur",
            "cpu"} <= set(spans[0])


def test_prometheus_export(tmp_path):
    out = run_trace(tmp_path, "--export", "prometheus")
    text = out.read_text()
    assert "# TYPE repro_kernel_cache_lookups_total counter" in text
    assert "# TYPE repro_scan_input_bytes_total counter" in text
    for line in text.splitlines():
        if line and not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])


def test_trace_leaves_tracing_disabled(tmp_path):
    run_trace(tmp_path, "--export", "chrome")
    assert not obs.enabled()


def test_unknown_app_fails():
    with pytest.raises((KeyError, SystemExit)):
        main(["trace", "NotAnApp"])
