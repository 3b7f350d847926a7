"""CLI (`python -m repro`) tests."""

import pytest

from repro.__main__ import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_basic_match(capsys):
    code, out = run_cli(capsys, "cat", "--text", "bobcat")
    assert code == 0
    assert "1 match(es)" in out
    assert "[5]" in out


def test_no_match_exit_code(capsys):
    code, out = run_cli(capsys, "xyz", "--text", "aaaa")
    assert code == 1
    assert "0 match(es)" in out


def test_multiple_patterns(capsys):
    code, out = run_cli(capsys, "cat", "dog", "--text", "cat dog")
    assert out.count("match(es)") == 2


def test_engines(capsys):
    for engine in ("bitgen", "hyperscan", "ngap", "icgrep", "re2"):
        code, out = run_cli(capsys, "ab", "--text", "abab",
                            "--engine", engine)
        assert code == 0, engine
        assert "2 match(es)" in out, engine


def test_scheme_flag(capsys):
    code, out = run_cli(capsys, "a(bc)*d", "--text", "abcbcd",
                        "--scheme", "BASE")
    assert code == 0


def test_stats_flag(capsys):
    _, out = run_cli(capsys, "ab", "--text", "ab", "--stats")
    assert "ops=" in out


def test_spans_flag(capsys):
    _, out = run_cli(capsys, "cat", "--text", "a cat", "--spans")
    assert "starts at [2]" in out


def test_kernel_flag(capsys):
    code, out = run_cli(capsys, "ab", "--kernel")
    assert code == 0
    assert "__device__" in out


def test_patterns_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# comment\ncat\ndog\n")
    code, out = run_cli(capsys, "-f", str(rules), "--text", "cat")
    assert out.count("match(es)") == 2


def test_input_file(tmp_path, capsys):
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"xxcatxx")
    code, out = run_cli(capsys, "cat", "-i", str(payload))
    assert code == 0


def test_limit_truncates(capsys):
    _, out = run_cli(capsys, "a", "--text", "a" * 30, "--limit", "3")
    assert "..." in out


def test_no_patterns_errors():
    with pytest.raises(SystemExit):
        main(["--text", "x"])


def test_scan_reports_json(tmp_path, capsys):
    import json

    rules = tmp_path / "rules.txt"
    rules.write_text("cat\ndog\n")
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"a cat and a dog")
    code, out = run_cli(capsys, "scan", "--patterns", str(rules),
                        str(payload))
    assert code == 0
    report = json.loads(out)
    assert report["match_count"] == 2
    assert report["matches"] == {"0": [4], "1": [14]}
    assert report["file"] == str(payload)
    assert "dispatch" not in report and "faults" not in report


def test_scan_rejects_removed_pool_flags(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("cat\n")
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--patterns", str(rules), "--workers", "2"])
    assert exc.value.code == 2
