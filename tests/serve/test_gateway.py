"""The gateway: multiplexing, bit-identity, policy enforcement.

Contract: the gateway adds admission, queueing, deadlines, and breaker
policy around the engine — never a different answer.  Every scan and
every interleaved streaming session must be bit-identical to a serial
one-shot scan of the same bytes.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.serve import (DeadlineExceededError, Gateway, OverloadedError,
                         ServeConfig, SessionLimitError,
                         UnknownSessionError)
from repro.serve.config import BadRequestError

TINY = CTAGeometry(threads=4, word_bits=8)
CONFIG = ScanConfig(geometry=TINY)
PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]"]
DATA = b"abcbcd cat 42 dog abcd and 7 cats, 99 dogs; abcbcbcd"


def run(coro):
    return asyncio.run(coro)


def gateway(**changes) -> Gateway:
    changes.setdefault("scan", CONFIG)
    return Gateway(ServeConfig(**changes))


def nonempty(matches) -> dict:
    return {p: list(ends) for p, ends in matches.items() if ends}


def test_scan_is_bit_identical_to_engine():
    async def main():
        gw = gateway()
        report = await gw.scan("t", PATTERNS, DATA)
        await gw.close()
        return report

    report = run(main())
    assert report == repro.scan(PATTERNS, DATA, config=CONFIG).matches


def test_interleaved_sessions_match_serial_scans():
    """100 sessions, round-robin chunks, each checked against a serial
    one-shot scan — the multiplexer's core guarantee."""
    chunk, chunks = 24, 4
    base = DATA * 3

    async def main():
        gw = gateway(max_engines=4)
        plans = []
        for index in range(100):
            offset = (index * 7) % (len(base) - chunk * chunks)
            data = base[offset:offset + chunk * chunks]
            opened = await gw.open_session(f"t{index % 3}", PATTERNS)
            plans.append({"tenant": f"t{index % 3}", "data": data,
                          "session": opened["session"], "got": {}})
        for k in range(chunks):
            for plan in plans:
                report = await gw.feed(
                    plan["tenant"], plan["session"],
                    plan["data"][k * chunk:(k + 1) * chunk])
                for p, ends in report.matches.items():
                    plan["got"].setdefault(p, []).extend(ends)
        for plan in plans:
            await gw.close_session(plan["tenant"], plan["session"])
        stats = gw.stats()
        await gw.close()
        return plans, stats

    plans, stats = run(main())
    for plan in plans:
        expected = nonempty(
            repro.scan(PATTERNS, plan["data"], config=CONFIG).matches)
        assert nonempty(plan["got"]) == expected
    assert stats["sessions"] == 0
    # 100 sessions over 3 tenants share 3 engines, compiled once each
    assert stats["host"]["resident"] == 3


def test_admission_sheds_at_high_water():
    async def main():
        gw = gateway(queue_depth=4)
        await gw.compile("t", PATTERNS)        # warm, outside the burst
        results = await asyncio.gather(
            *(gw.scan("t", PATTERNS, DATA) for _ in range(10)),
            return_exceptions=True)
        await gw.close()
        return results

    results = run(main())
    shed = [r for r in results if isinstance(r, OverloadedError)]
    served = [r for r in results if not isinstance(r, Exception)]
    # the burst of 10 against a depth-4 queue: some shed, some served
    assert len(shed) == 6
    assert len(served) == 4
    reference = repro.scan(PATTERNS, DATA, config=CONFIG).matches
    for report in served:
        assert report == reference


def test_deadline_expired_in_queue_is_answered_without_scanning():
    async def main():
        gw = gateway()
        await gw.compile("t", PATTERNS)
        # a 1µs budget is always spent by the time the lane dequeues
        # the request, so it must be refused without scanning
        with pytest.raises(DeadlineExceededError) as exc:
            await gw.scan("t", PATTERNS, DATA, deadline_s=1e-6)
        await gw.close()
        return exc.value

    error = run(main())
    assert error.code == "deadline"
    assert "queue" in str(error)


def test_breaker_opens_on_failures_and_changes_no_answer():
    """Deadline failures open the serve breaker; it is reported in
    ``stats()`` and changes how no request runs."""

    async def main():
        gw = gateway(breaker_threshold=1, breaker_cooldown_s=60.0)
        healthy = await gw.scan("t", PATTERNS, DATA)
        with pytest.raises(DeadlineExceededError):
            await gw.scan("t", PATTERNS, DATA, deadline_s=1e-6)
        after_open = await gw.scan("t", PATTERNS, DATA)
        stats = gw.stats()
        await gw.close()
        return healthy, after_open, stats

    healthy, after_open, stats = run(main())
    assert stats["breaker"] == "open"
    assert after_open == healthy.matches


def test_breaker_closes_after_its_cooldown_and_a_success():
    async def main():
        gw = gateway(breaker_threshold=1, breaker_cooldown_s=0.0)
        with pytest.raises(DeadlineExceededError):
            await gw.scan("t", PATTERNS, DATA, deadline_s=1e-6)
        opened = gw.breaker.state()
        await gw.scan("t", PATTERNS, DATA)
        state = gw.stats()["breaker"]
        await gw.close()
        return opened, state

    assert run(main()) == ("open", "closed")


#: one of each way a pattern can fail to parse
UNPARSEABLE = ["a(b", "[z-a]", "*a", "a{2,1}", "\\"]


@pytest.mark.parametrize("pattern", UNPARSEABLE)
def test_unparseable_patterns_are_bad_requests(pattern):
    """Every op that compiles answers ``bad-request`` for a pattern
    that does not parse, and none counts against the breaker."""

    async def main():
        gw = gateway(breaker_threshold=2)
        codes = []
        for _ in range(gw.config.breaker_threshold):
            for op in (lambda: gw.scan("t", [pattern], DATA),
                       lambda: gw.compile("t", ["ok", pattern]),
                       lambda: gw.open_session("t", [pattern])):
                with pytest.raises(BadRequestError) as exc:
                    await op()
                codes.append(exc.value.code)
        state = gw.breaker.state()
        still = await gw.scan("t", PATTERNS, DATA)
        await gw.close()
        return codes, state, still

    codes, state, still = run(main())
    assert set(codes) == {"bad-request"}
    assert state == "closed"
    assert still == repro.scan(PATTERNS, DATA, config=CONFIG).matches


def test_unknown_session_and_session_limit():
    async def main():
        gw = gateway(max_sessions=1)
        with pytest.raises(UnknownSessionError):
            await gw.feed("t", "missing-1", b"x")
        opened = await gw.open_session("t", PATTERNS)
        with pytest.raises(SessionLimitError):
            await gw.open_session("t", PATTERNS)
        # another tenant cannot touch the session
        with pytest.raises(UnknownSessionError):
            await gw.feed("intruder", opened["session"], b"x")
        await gw.close_session("t", opened["session"])
        # the slot is free again
        reopened = await gw.open_session("t", PATTERNS)
        await gw.close_session("t", reopened["session"])
        await gw.close()

    run(main())


def test_per_request_deadline_overrides_gateway_default():
    async def main():
        # gateway default is absurdly tight; the request relaxes it
        gw = gateway(deadline_s=1e-9)
        await gw.compile("t", PATTERNS, deadline_s=None)
        report = await gw.scan("t", PATTERNS, DATA, deadline_s=30.0)
        with pytest.raises(DeadlineExceededError):
            await gw.scan("t", PATTERNS, DATA)   # default applies
        await gw.close()
        return report

    report = run(main())
    assert report == repro.scan(PATTERNS, DATA, config=CONFIG).matches


def test_closed_gateway_refuses_requests():
    async def main():
        gw = gateway()
        await gw.scan("t", PATTERNS, DATA)
        await gw.close()
        with pytest.raises(Exception):
            await gw.scan("t", PATTERNS, DATA)

    run(main())


def test_default_config_serves_on_the_compiled_backend():
    assert ServeConfig().scan.backend == "compiled"
    assert ScanConfig().backend == "simulate"   # the library default stays


def test_default_gateway_matches_simulate_scans():
    """Interleaved sessions and one-shot scans on the default (compiled)
    gateway equal a simulate-backend scan of the same bytes."""
    simulate = ScanConfig(backend="simulate")
    chunk, chunks = 40, 4
    base = DATA * 4
    datas = [base[offset:offset + chunk * chunks]
             for offset in (0, 11, 29, 47)]

    async def main():
        gw = Gateway(ServeConfig())
        sessions = []
        for index, data in enumerate(datas):
            opened = await gw.open_session(f"t{index % 2}", PATTERNS)
            sessions.append((f"t{index % 2}", opened["session"], data, {}))
        for k in range(chunks):
            for tenant, sid, data, got in sessions:
                report = await gw.feed(tenant, sid,
                                       data[k * chunk:(k + 1) * chunk])
                for p, ends in report.matches.items():
                    got.setdefault(p, []).extend(ends)
        for tenant, sid, _, _ in sessions:
            await gw.close_session(tenant, sid)
        scans = [await gw.scan("t0", PATTERNS, data) for data in datas]
        await gw.close()
        return sessions, scans

    sessions, scans = run(main())
    for (_, _, data, got), scanned in zip(sessions, scans):
        expected = nonempty(
            repro.scan(PATTERNS, data, config=simulate).matches)
        assert expected
        assert nonempty(got) == expected
        assert nonempty(scanned) == expected
