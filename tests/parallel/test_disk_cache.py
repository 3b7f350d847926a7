"""The process-safe on-disk kernel cache.

Contract: marshalled artefacts round-trip; a fresh in-process cache
backed by a warm directory loads kernels instead of recompiling
(counted as ``disk_hits``); corrupted or cross-version entries fail
closed as misses; keys embed the codegen and interpreter versions.
"""

from __future__ import annotations

import sys

from repro.backend import runtime
from repro.backend.codegen import CODEGEN_VERSION
from repro.backend.compiled import KernelCache
from repro.backend.fingerprint import cache_key, canonicalize
from repro.ir import lower_regex
from repro.parallel.diskcache import DiskKernelCache, default_cache_dir
from repro.regex import parse


def canonical_program(pattern: str):
    return canonicalize(lower_regex(parse(pattern)))


def test_cache_key_embeds_versions():
    key = cache_key("deadbeef")
    assert key.startswith("deadbeef-")
    assert f"cg{CODEGEN_VERSION}" in key
    assert f"py{sys.version_info[0]}{sys.version_info[1]}" in key


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kc"))
    assert default_cache_dir() == str(tmp_path / "kc")
    monkeypatch.delenv("REPRO_KERNEL_CACHE")
    assert "repro-kernels-py" in default_cache_dir()


def test_roundtrip(tmp_path):
    disk = DiskKernelCache(str(tmp_path))
    source = "def kernel():\n    return 1\n"
    code = compile(source, "<kernel>", "exec")
    assert disk.get("k1") is None
    disk.put("k1", source, code)
    assert len(disk) == 1
    loaded = disk.get("k1")
    assert loaded is not None
    got_source, got_code = loaded
    assert got_source == source
    namespace = {}
    exec(got_code, namespace)
    assert namespace["kernel"]() == 1
    disk.clear()
    assert len(disk) == 0 and disk.get("k1") is None


def test_corrupted_entries_fail_closed(tmp_path):
    disk = DiskKernelCache(str(tmp_path))
    source = "x = 1\n"
    disk.put("k1", source, compile(source, "<kernel>", "exec"))
    entry = tmp_path / "k1.kbc"
    entry.write_bytes(b"\x00garbage")
    assert disk.get("k1") is None           # corrupted -> miss
    entry.write_bytes(b"")
    assert disk.get("k1") is None           # truncated -> miss
    # A rewrite heals the entry.
    disk.put("k1", source, compile(source, "<kernel>", "exec"))
    assert disk.get("k1") is not None


def test_corrupted_entries_are_quarantined(tmp_path):
    from repro import obs

    counter = obs.registry().counter(
        "repro_disk_cache_corrupt_total",
        "Corrupted disk-cache entries quarantined")
    before = counter.value()

    disk = DiskKernelCache(str(tmp_path))
    source = "x = 1\n"
    disk.put("k1", source, compile(source, "<kernel>", "exec"))
    (tmp_path / "k1.kbc").write_bytes(b"\x00garbage")
    assert disk.get("k1") is None
    # The bad payload is moved aside — kept for post-mortems, out of
    # the lookup path — and counted.
    assert not (tmp_path / "k1.kbc").exists()
    assert (tmp_path / "k1.kbc.bad").exists()
    assert counter.value() == before + 1
    # Next lookup is a clean miss (no re-parse of the bad file, no
    # second quarantine tick).
    assert disk.get("k1") is None
    assert counter.value() == before + 1

    # clear() sweeps quarantined files along with live entries.
    disk.put("k2", source, compile(source, "<kernel>", "exec"))
    disk.clear()
    assert list(tmp_path.glob("*.kbc")) == []
    assert list(tmp_path.glob("*.kbc.bad")) == []

    # An unreadable-but-present file (OSError path) is a plain miss,
    # not corruption: nothing to quarantine.
    assert disk.get("nonexistent") is None
    assert counter.value() == before + 1


def test_wrong_magic_is_a_miss(tmp_path):
    import marshal

    disk = DiskKernelCache(str(tmp_path))
    payload = marshal.dumps(("some-other-format", "x = 1\n",
                             compile("x = 1\n", "<kernel>", "exec")))
    (tmp_path / "k1.kbc").write_bytes(payload)
    assert disk.get("k1") is None


def test_memory_cache_compiles_through_to_disk(tmp_path):
    disk = DiskKernelCache(str(tmp_path))
    cache = KernelCache(disk=disk)
    canonical = canonical_program("ab+c")
    kernel = cache.get_or_compile(canonical)
    assert cache.stats.misses == 1
    assert cache.stats.disk_hits == 0
    assert len(disk) == 1
    assert disk.get(cache_key(canonical.digest)) is not None
    # Same process, second lookup: pure memory hit.
    assert cache.get_or_compile(canonical) is kernel
    assert cache.stats.hits == 1


def test_fresh_cache_loads_from_warm_disk(tmp_path):
    disk = DiskKernelCache(str(tmp_path))
    warm = KernelCache(disk=disk)
    canonical = canonical_program("ab+c")
    built = warm.get_or_compile(canonical)

    cold = KernelCache(disk=DiskKernelCache(str(tmp_path)))
    loaded = cold.get_or_compile(canonical)     # a worker's first touch
    assert cold.stats.disk_hits == 1            # memory miss, disk hit
    assert cold.stats.lookups == cold.stats.hits + cold.stats.misses
    assert loaded.source == built.source
    assert loaded.fingerprint == built.fingerprint
    # A loaded kernel calls its runtime helpers by global name too.
    assert "_steps(" in loaded.source
    assert loaded.func.__globals__["_steps"] is runtime.steps


def test_class_table_kernel_loads_from_warm_disk(tmp_path):
    """A class table's kernel is persisted like a group kernel, so a
    worker compiling the same group loads it instead of rebuilding."""
    from repro.backend import KernelInput, compile_group

    programs = [lower_regex(parse(p)) for p in ("ab+c", "[0-9]x")]
    stream = KernelInput.of(b"abbc 7x a0x")
    warm = KernelCache(disk=DiskKernelCache(str(tmp_path)))
    expected = compile_group(programs, cache=warm)[0].table.evaluate(stream)

    cold = KernelCache(disk=DiskKernelCache(str(tmp_path)))
    table = compile_group(programs, cache=cold)[0].table
    assert table.evaluate(stream) == expected
    # two group kernels and the class kernel, all loaded from disk
    assert cold.stats.lookups == cold.stats.disk_hits == 3


def test_attach_disk_flushes_resident_kernels(tmp_path):
    cache = KernelCache()
    canonical = canonical_program("xy?z")
    cache.get_or_compile(canonical)
    disk = DiskKernelCache(str(tmp_path))
    assert len(disk) == 0
    cache.attach_disk(disk)
    assert disk.get(cache_key(canonical.digest)) is not None


# -- size cap / LRU eviction ----------------------------------------------


def _fill(disk, count, payload_lines=2000):
    source = "x = 1\n" * payload_lines
    code = compile(source, "<kernel>", "exec")
    import time

    for index in range(count):
        disk.put(f"cap{index}", source, code)
        time.sleep(0.01)        # distinct mtimes for a stable LRU order
    return source


def test_size_cap_evicts_oldest_first(tmp_path):
    from repro.parallel.diskcache import _DISK_EVICTIONS

    disk = DiskKernelCache(str(tmp_path), max_mb=0.05)
    before = _DISK_EVICTIONS.value()
    _fill(disk, 8)
    assert len(disk) < 8
    # the newest entry always survives eviction
    assert disk.get("cap7") is not None
    assert disk.get("cap0") is None or len(disk) >= 8
    assert _DISK_EVICTIONS.value() > before


def test_hit_refreshes_recency(tmp_path):
    import os
    import time

    disk = DiskKernelCache(str(tmp_path), max_mb=10)
    _fill(disk, 3)
    entry_bytes = os.path.getsize(
        os.path.join(disk.path, "cap0.kbc"))
    time.sleep(0.01)
    assert disk.get("cap0") is not None   # touch the oldest
    # cap sized so one entry must go when the fourth arrives
    disk.max_mb = 3.5 * entry_bytes / (1024 * 1024)
    source = "y = 2\n" * 2000
    disk.put("trigger", source, compile(source, "<k>", "exec"))
    # cap0 was touched most recently before the trigger; cap1 was not
    assert disk.get("cap0") is not None
    assert disk.get("cap1") is None


def test_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE_MAX_MB", "7.5")
    assert DiskKernelCache(str(tmp_path)).max_mb == 7.5
    monkeypatch.setenv("REPRO_DISK_CACHE_MAX_MB", "not-a-number")
    assert DiskKernelCache(str(tmp_path)).max_mb is None
    monkeypatch.delenv("REPRO_DISK_CACHE_MAX_MB")
    assert DiskKernelCache(str(tmp_path)).max_mb is None


def test_uncapped_cache_never_evicts(tmp_path):
    disk = DiskKernelCache(str(tmp_path))
    _fill(disk, 4, payload_lines=200)
    assert len(disk) == 4
