"""Open-loop serving load: latency-vs-load and SLO-violation curves.

``bench_serve.py`` drives *closed-loop* clients (each waits for its
response before the next request) — that measures service latency, but
closed loops self-throttle: when the server slows down, the offered
load drops with it, hiding collapse.  This harness drives **open-loop
arrival-rate load** — requests arrive on a fixed schedule whether or
not earlier ones finished, the way real traffic does — and sweeps the
rate across the gateway's capacity, recording per-rate p50/p99, shed
counts, and the rolling SLO violation/burn numbers the telemetry layer
computes (:mod:`repro.serve.telemetry`).

Also on the line, because this is the CI scrape-overhead guard:

* A **live /metrics scraper** polls the gateway's
  :class:`~repro.serve.telemetry.MetricsServer` throughout one load
  trial; every scrape must return 200 with the serve series present.
* **Scrape overhead is bounded**: paired closed-loop trials (scrape
  vs no-scrape) must agree on throughput within
  ``max(1%, measured no-scrape noise floor)`` — rendering a registry
  snapshot may not tax the serving path.
* The **access log** written during the sweep
  (``results/serve_access_log.jsonl``) must parse as JSONL and carry
  the per-request fields (tenant, op, outcome, latency, queue delay).

Results merge into ``BENCH_serve.json`` under the ``"open_loop"`` key
(the closed-loop benchmark owns the others).  ``--quick`` shrinks the
sweep for CI.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.serve import Gateway, MetricsServer, ServeConfig
from repro.serve.telemetry import scrape_metrics

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_serve.json"
ACCESS_LOG = ROOT / "results" / "serve_access_log.jsonl"

PATTERNS = ["GET /[a-z]+", "cat|dog", "[0-9][0-9]", "a(bc)*d"]
BASE = (b"abcbcd colour cat 42 xyyz virus7 GET /index "
        b"foo bar qux color abcd and 99 dogs " * 24)
SCAN_BYTES = 1536

#: offered arrival rates (requests/s) swept per trial
RATES = (50, 150, 400, 1000)
TRIAL_SECONDS = 2.0
QUICK_RATES = (50, 400)
QUICK_TRIAL_SECONDS = 0.6

#: the latency SLO the violation/burn columns score against
SLO_TARGET_S = 0.05

#: paired-trial scrape-overhead budget (fraction of throughput)
OVERHEAD_BUDGET = 0.01

#: scrape cadence during the overhead trials — 1 Hz is already 15x
#: more aggressive than Prometheus's default 15s interval; the guard
#: bounds the cost of *realistic* scraping, not of a scrape DoS
SCRAPE_INTERVAL_S = 1.0

#: closed-loop shape of the overhead trials (long enough that several
#: scrapes land inside every scraped probe)
OVERHEAD_CLIENTS = 4
OVERHEAD_REQUESTS = 200
OVERHEAD_PAIRS = 3


def percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def make_gateway() -> Gateway:
    ACCESS_LOG.parent.mkdir(parents=True, exist_ok=True)
    return Gateway(ServeConfig(
        max_engines=16, queue_depth=256,
        slo_target_s=SLO_TARGET_S,
        access_log_path=str(ACCESS_LOG)))


# -- open-loop sweep ---------------------------------------------------------


async def open_loop_trial(gateway: Gateway, rate: float,
                          seconds: float) -> Dict:
    """Fire ``rate * seconds`` scans on a fixed arrival schedule;
    latency is measured from *scheduled arrival*, so queueing (and
    any server slowdown) shows up instead of throttling the load."""
    tenant = f"open-{int(rate)}"
    data = BASE[:SCAN_BYTES]
    total = max(1, int(rate * seconds))
    await gateway.compile(tenant, PATTERNS)  # warm outside the trial
    latencies: List[float] = []
    shed = 0
    errors = 0

    async def one(arrival: float) -> None:
        nonlocal shed, errors
        try:
            await gateway.scan(tenant, PATTERNS, data)
        except Exception as exc:
            if getattr(exc, "code", None) == "overloaded":
                shed += 1
            else:
                errors += 1
            return
        latencies.append(time.perf_counter() - arrival)

    begin = time.perf_counter()
    tasks = []
    for index in range(total):
        scheduled = begin + index / rate
        delay = scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(scheduled)))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - begin

    slo = gateway.telemetry.slo.snapshot().get(tenant, {})
    return {
        "offered_rps": rate,
        "requests": total,
        "completed": len(latencies),
        "shed": shed,
        "errors": errors,
        "achieved_rps": len(latencies) / elapsed,
        "p50_s": percentile(latencies, 0.50),
        "p99_s": percentile(latencies, 0.99),
        "slo_violation_ratio": slo.get("violation_ratio", 0.0),
        "slo_burn": slo.get("burn", 0.0),
        "slo_violations": slo.get("violations", 0),
    }


# -- live scraping + overhead ------------------------------------------------


async def scraping_task(server: MetricsServer, stop: asyncio.Event,
                        results: Dict) -> None:
    """Poll /metrics until told to stop; record statuses and check
    the serve series are present in every body."""
    while not stop.is_set():
        status, body = await scrape_metrics(server.host, server.port)
        results["scrapes"] = results.get("scrapes", 0) + 1
        results.setdefault("statuses", set()).add(status)
        if "repro_serve_tenant_requests_total" not in body \
                or "repro_serve_slo_burn" not in body:
            results["missing_series"] = \
                results.get("missing_series", 0) + 1
        try:
            await asyncio.wait_for(stop.wait(), SCRAPE_INTERVAL_S)
        except asyncio.TimeoutError:
            pass


async def closed_loop_throughput(gateway: Gateway, tenant: str) -> float:
    """Requests/s of a fixed closed-loop burst (the paired-trial
    probe the overhead guard compares)."""
    data = BASE[:SCAN_BYTES]

    async def client(index: int) -> None:
        for _ in range(OVERHEAD_REQUESTS):
            await gateway.scan(f"{tenant}-{index}", PATTERNS, data)

    for index in range(OVERHEAD_CLIENTS):
        await gateway.compile(f"{tenant}-{index}", PATTERNS)
    begin = time.perf_counter()
    await asyncio.gather(*(client(index)
                           for index in range(OVERHEAD_CLIENTS)))
    return (OVERHEAD_CLIENTS * OVERHEAD_REQUESTS
            / (time.perf_counter() - begin))


async def measure_scrape_overhead(gateway: Gateway,
                                  server: MetricsServer) -> Dict:
    """Alternating paired trials: ``OVERHEAD_PAIRS`` no-scrape /
    scraped probe pairs, compared **best-of vs best-of** so a one-off
    scheduler stall in either column cannot fake (or mask) overhead.
    The no-scrape spread is the machine's measured noise floor; the
    scraped best must sit within ``max(OVERHEAD_BUDGET, noise)`` of
    the no-scrape best."""
    await asyncio.sleep(0.2)  # let the open-loop backlog settle
    baselines: List[float] = []
    scraped_runs: List[float] = []
    scrape_stats: Dict = {}
    for pair in range(OVERHEAD_PAIRS):
        baselines.append(await closed_loop_throughput(
            gateway, f"ovh-base-{pair}"))
        stop = asyncio.Event()
        scraper = asyncio.ensure_future(
            scraping_task(server, stop, scrape_stats))
        scraped_runs.append(await closed_loop_throughput(
            gateway, f"ovh-scrape-{pair}"))
        stop.set()
        await scraper

    best_base = max(baselines)
    noise = (best_base - min(baselines)) / best_base
    overhead = max(0.0, (best_base - max(scraped_runs)) / best_base)
    return {
        "baseline_rps": best_base,
        "baseline_runs": baselines,
        "scraped_rps": max(scraped_runs),
        "scraped_runs": scraped_runs,
        "noise_floor": noise,
        "overhead": overhead,
        "budget": OVERHEAD_BUDGET,
        "allowed": max(OVERHEAD_BUDGET, noise),
        "scrapes": scrape_stats.get("scrapes", 0),
        "scrape_statuses": sorted(scrape_stats.get("statuses", ())),
        "scrapes_missing_series": scrape_stats.get("missing_series", 0),
    }


# -- access-log validation ---------------------------------------------------


def validate_access_log(path: Path) -> Dict:
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    required = ("ts", "op", "tenant", "outcome", "latency_s",
                "queue_delay_s")
    malformed = sum(1 for r in records
                    if any(field not in r for field in required))
    return {
        "path": str(path.relative_to(ROOT)),
        "records": len(records),
        "malformed": malformed,
        "outcomes": sorted({r.get("outcome") for r in records}),
        "ops": sorted({r.get("op") for r in records}),
    }


# -- driver ------------------------------------------------------------------


async def run_async(quick: bool) -> Dict:
    rates = QUICK_RATES if quick else RATES
    seconds = QUICK_TRIAL_SECONDS if quick else TRIAL_SECONDS
    if ACCESS_LOG.exists():
        ACCESS_LOG.unlink()
    gateway = make_gateway()
    server = await MetricsServer(
        port=0, refresh=gateway.telemetry.refresh).start()

    rows = []
    for rate in rates:
        rows.append(await open_loop_trial(gateway, rate, seconds))
    overhead = await measure_scrape_overhead(gateway, server)

    status, body = await scrape_metrics(server.host, server.port)
    final_scrape_ok = (status == 200
                       and "repro_serve_slo_p99_seconds" in body)
    await server.stop()
    await gateway.close()  # flushes the access-log ring
    return {
        "benchmark": "open-loop arrival-rate serving load "
                     "(latency vs load, SLO violations, live scrape)",
        "scan_bytes": SCAN_BYTES,
        "slo_target_s": SLO_TARGET_S,
        "trial_seconds": seconds,
        "levels": rows,
        "scrape_overhead": overhead,
        "final_scrape_ok": final_scrape_ok,
        "access_log": validate_access_log(ACCESS_LOG),
    }


def merge_into_bench(payload: Dict) -> None:
    """Own only the ``open_loop`` key of BENCH_serve.json; the
    closed-loop benchmark owns the rest."""
    existing: Dict = {}
    if OUTPUT.exists():
        try:
            existing = json.loads(OUTPUT.read_text())
        except (ValueError, OSError):
            existing = {}
    existing["open_loop"] = payload
    OUTPUT.write_text(json.dumps(existing, indent=2) + "\n")


def run_benchmark(quick: bool = False) -> Dict:
    payload = asyncio.run(run_async(quick))
    merge_into_bench(payload)
    print()
    for row in payload["levels"]:
        print(f"  offered={row['offered_rps']:6.0f} rps: "
              f"achieved={row['achieved_rps']:8.1f} rps  "
              f"p50={row['p50_s'] * 1e3:7.2f}ms  "
              f"p99={row['p99_s'] * 1e3:7.2f}ms  "
              f"shed={row['shed']:4d}  "
              f"burn={row['slo_burn']:6.2f}")
    overhead = payload["scrape_overhead"]
    print(f"  scrape overhead: {overhead['overhead'] * 100:.2f}% over "
          f"{overhead['scrapes']} scrapes "
          f"(allowed {overhead['allowed'] * 100:.2f}%)")
    log = payload["access_log"]
    print(f"  access log: {log['records']} records, "
          f"{log['malformed']} malformed -> {log['path']}")
    return payload


def check_assertions(payload: Dict) -> None:
    assert len(payload["levels"]) >= 2
    for row in payload["levels"]:
        assert row["completed"] + row["shed"] + row["errors"] \
            == row["requests"]
        assert row["errors"] == 0, f"unexpected errors: {row}"
    overhead = payload["scrape_overhead"]
    assert overhead["scrapes"] > 0, "scraper never ran during load"
    assert overhead["scrape_statuses"] == [200], \
        f"non-200 scrapes: {overhead['scrape_statuses']}"
    assert overhead["scrapes_missing_series"] == 0
    assert overhead["overhead"] <= overhead["allowed"], \
        (f"/metrics scraping cost {overhead['overhead'] * 100:.2f}% "
         f"throughput, over the {overhead['allowed'] * 100:.2f}% "
         f"allowance (1% budget or measured noise floor)")
    assert payload["final_scrape_ok"]
    log = payload["access_log"]
    assert log["records"] > 0 and log["malformed"] == 0
    assert "ok" in log["outcomes"]
    total = sum(row["requests"] for row in payload["levels"])
    # every swept request (plus warmup/overhead traffic) logged,
    # minus anything the bounded ring displaced under burst
    assert log["records"] >= total * 0.5


def test_serve_open_loop_quick():
    check_assertions(run_benchmark(quick=True))


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    check_assertions(run_benchmark(quick=quick))
    print(f"wrote {OUTPUT} (open_loop)")
