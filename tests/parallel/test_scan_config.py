"""ScanConfig: validation and the post-deprecation legacy-kwarg policy.

The API contract under test: every entry point accepts one ScanConfig;
the pre-ScanConfig scattered kwargs (deprecated for one release in
PR 2) are now rejected outright with a TypeError that spells out the
migration, so stale call sites fail loudly at the call site.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BitGenEngine
from repro.core.schemes import Scheme
from repro.core.streaming import StreamingMatcher
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import (BACKENDS, EXECUTORS, ScanConfig,
                                   reject_legacy_kwargs)
from repro.perf.harness import Harness

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "cat|dog"]


# -- validation --------------------------------------------------------------


def test_defaults_are_valid():
    config = ScanConfig()
    assert config.scheme is Scheme.ZBS
    assert config.workers == 1
    assert not config.parallel_enabled()
    assert config.backend in BACKENDS
    assert config.executor in EXECUTORS


@pytest.mark.parametrize("bad", [
    {"backend": "cuda"},
    {"executor": "serial"},
    {"executor": "fiber"},
    {"workers": 0},
    {"merge_size": 0},
    {"interval_size": 0},
    {"max_tail_bytes": 0},
    {"worker_timeout": -1.0},
])
def test_invalid_fields_rejected(bad):
    with pytest.raises(ValueError):
        ScanConfig(**bad)


def test_replace_and_serial_views():
    config = ScanConfig(workers=4, executor="thread")
    assert config.parallel_enabled()
    serial = config.serial()
    assert serial.workers == 1 and not serial.parallel_enabled()
    assert serial.executor == "thread"      # only the fan-out changes
    assert config.workers == 4              # frozen: original untouched
    # workers==1 serial() is the identity (no useless copies)
    one = ScanConfig()
    assert one.serial() is one


def test_compile_key_excludes_dispatch_knobs():
    base = ScanConfig()
    assert base.compile_key() == \
        base.replace(workers=8, executor="thread").compile_key()
    assert base.compile_key() != \
        base.replace(merge_size=4).compile_key()


# -- legacy kwargs are rejected with a migration hint ------------------------


def test_reject_legacy_kwargs_no_op_on_empty():
    reject_legacy_kwargs("api", {})     # must not raise


def test_reject_legacy_kwargs_message_names_fields():
    with pytest.raises(TypeError) as exc:
        reject_legacy_kwargs("SomeAPI", {"merge_size": 4, "scheme": 1})
    message = str(exc.value)
    assert "SomeAPI" in message
    assert "merge_size" in message and "scheme" in message
    assert "ScanConfig" in message          # the migration hint


def test_engine_legacy_kwargs_raise():
    with pytest.raises(TypeError) as exc:
        BitGenEngine.compile(PATTERNS, scheme=Scheme.SR, geometry=TINY,
                             merge_size=4, loop_fallback=True)
    message = str(exc.value)
    assert "BitGenEngine.compile" in message
    assert "ScanConfig" in message
    for name in ("scheme", "geometry", "merge_size", "loop_fallback"):
        assert name in message


def test_engine_config_path_works():
    engine = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(scheme=Scheme.SR, geometry=TINY,
                                    merge_size=4,
                                    loop_fallback=True))
    assert engine.scheme is Scheme.SR


def test_streaming_legacy_kwarg_raises():
    engine = BitGenEngine.compile(PATTERNS,
                                  config=ScanConfig(geometry=TINY))
    with pytest.raises(TypeError) as exc:
        StreamingMatcher(engine, max_tail_bytes=512)
    assert "StreamingMatcher" in str(exc.value)
    assert "max_tail_bytes" in str(exc.value)


def test_streaming_inherits_engine_config_silently():
    engine = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, max_tail_bytes=777))
    matcher = StreamingMatcher(engine)
    assert matcher.config.max_tail_bytes == 777


def test_harness_legacy_kwarg_raises():
    with pytest.raises(TypeError) as exc:
        Harness(backend="compiled")
    assert "Harness" in str(exc.value)
    assert "backend" in str(exc.value)


def test_harness_config_pins_device_defaults():
    from repro.gpu.config import RTX_3090, XEON_8562Y

    harness = Harness(config=ScanConfig())
    assert harness.gpu is RTX_3090
    assert harness.cpu is XEON_8562Y
    assert harness.geometry is not None


# -- optimizer and dispatch-threshold knobs ----------------------------------


@pytest.mark.parametrize("bad", [
    {"opt_level": -1},
    {"opt_level": 3},
    {"deadline_s": 0.0},
])
def test_invalid_opt_and_threshold_fields_rejected(bad):
    with pytest.raises(ValueError):
        ScanConfig(**bad)


def test_opt_level_defaults_to_full_pipeline():
    assert ScanConfig().opt_level == 2


def test_opt_level_changes_compile_key():
    base = ScanConfig()
    assert base.compile_key() != base.replace(opt_level=0).compile_key()


# -- process-pool start method ------------------------------------------------


def test_invalid_start_method_rejected():
    with pytest.raises(ValueError):
        ScanConfig(start_method="thread")


def test_explicit_start_method_wins_over_env(monkeypatch):
    from repro.parallel.config import START_METHOD_ENV

    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    config = ScanConfig(start_method="forkserver")
    assert config.resolved_start_method() == "forkserver"


def test_env_override_reaches_default_config(monkeypatch):
    from repro.parallel.config import START_METHOD_ENV

    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    assert ScanConfig().resolved_start_method() == "spawn"


def test_invalid_env_start_method_raises(monkeypatch):
    from repro.parallel.config import START_METHOD_ENV

    monkeypatch.setenv(START_METHOD_ENV, "greenlet")
    with pytest.raises(ValueError):
        ScanConfig().resolved_start_method()


def test_default_start_method_prefers_fork(monkeypatch):
    import multiprocessing

    from repro.parallel.config import (START_METHOD_ENV,
                                       default_start_method)

    monkeypatch.delenv(START_METHOD_ENV, raising=False)
    expected = "fork" \
        if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    assert default_start_method() == expected
    assert ScanConfig().resolved_start_method() == expected


def test_start_method_resolved_at_dispatch_time(monkeypatch):
    """The env override is read when a pool is built, not when the
    config object was constructed — long-lived processes can retarget."""
    from repro.parallel.config import START_METHOD_ENV

    config = ScanConfig()
    monkeypatch.setenv(START_METHOD_ENV, "forkserver")
    assert config.resolved_start_method() == "forkserver"
