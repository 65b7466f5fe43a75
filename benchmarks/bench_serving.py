"""Sustained-QPS / p99 benchmark of the serving plane.

Drives the persistent :class:`~repro.serve.QueryService` with two client
shapes over a fuzz-sampled workload of registered session identities
(including duplicate requests and structurally identical seed twins, so
both coalescing paths fire):

* **closed loop** — C concurrent clients, each submitting its next
  query the moment the previous answer lands: sustained throughput.
* **open loop** — Poisson arrivals (seeded, deterministic schedule) at
  a rate derived from the measured capacity: tail latency under an
  arrival process that does not wait for the service.

The baseline is the *cold per-query* ``Planner`` pipeline the lab runs:
per query, cleared memo/plan caches, materialization, protocol-plan
compilation, protocol execution and the reference solve.  The committed
``BENCH_serving.json`` records the warm-served ÷ cold QPS ratio; CI
re-measures both sides in one process and gates on 80% of the committed
ratio (machine-neutral).

Every served answer is asserted digest-identical to its cold
``Planner.execute`` answer — the speedup is bought by warm state
(shared materialization, hot plan caches, interned dictionaries,
stacked/coalesced execution), never by weakening the answer contract.

Run as a script to (re)generate the artifact::

    PYTHONPATH=src python benchmarks/bench_serving.py --out .
"""

import asyncio
import json
import random
import time

from repro import kernels
from repro.core.memo import clear_all_memos
from repro.core.planner import Planner
from repro.faq.plan import PLAN_CACHE
from repro.faq.reference import structural_signature
from repro.lab.generate import generate_scenarios
from repro.lab.results import answer_digest, percentile
from repro.pipeline import materialize_scenario
from repro.serve import AdmissionPolicy, QueryService, ServeError, session_id_of

#: Distinct from suite seeds: the bench explores its own slice.
BENCH_SEED = 20260807

#: Distinct session identities registered with the service.
BENCH_SESSIONS = 12

#: Closed-loop shape: clients x requests each.
CLIENTS = 16
REQUESTS_PER_CLIENT = 15

#: The acceptance-criteria floor: warm served QPS >= 5x cold QPS.
SPEEDUP_FLOOR = 5.0


def build_workload():
    """The registered identities, guaranteed to contain a twin pair."""
    specs = list(generate_scenarios(BENCH_SEED, BENCH_SESSIONS - 2))
    for spec in generate_scenarios(BENCH_SEED + 1, 40):
        twin = spec.with_(seed=spec.seed + 1)
        try:
            sig = structural_signature(materialize_scenario(spec)[0].query)
            twin_sig = structural_signature(
                materialize_scenario(twin)[0].query
            )
        except Exception:
            continue
        if sig is not None and sig == twin_sig and (
            session_id_of(spec) != session_id_of(twin)
        ):
            specs.extend((spec, twin))
            break
    else:  # pragma: no cover - sample-dependent
        specs.extend(generate_scenarios(BENCH_SEED + 2, 2))
    return specs


def cold_execute(spec):
    """One cold per-query pipeline: the lab's serial path from scratch."""
    clear_all_memos()
    PLAN_CACHE.clear()
    built, topology, assignment = materialize_scenario(spec)
    with kernels.use_tier(spec.kernels):
        planner = Planner(
            built.query, topology, assignment=assignment,
            backend=spec.backend, engine=spec.engine, solver=spec.solver,
        )
        report = planner.execute(max_rounds=spec.max_rounds)
    assert report.correct
    return answer_digest(report.answer.schema, report.answer.rows)


def measure_cold(specs):
    start = time.perf_counter()
    digests = {session_id_of(spec): cold_execute(spec) for spec in specs}
    seconds = time.perf_counter() - start
    # The baseline must not leak warm state into the serving run.
    clear_all_memos()
    PLAN_CACHE.clear()
    return digests, {
        "queries": len(specs),
        "seconds": seconds,
        "qps": len(specs) / seconds,
    }


async def run_closed_loop(service, specs, expected):
    """C clients, each back-to-back: sustained capacity."""
    stream = [specs[i % len(specs)] for i in range(
        CLIENTS * REQUESTS_PER_CLIENT
    )]
    per_client = [stream[c::CLIENTS] for c in range(CLIENTS)]
    latencies = []

    async def client(requests):
        for spec in requests:
            result = await service.submit(spec)
            assert result.digest == expected[result.session_id]
            latencies.append(result.latency_s)

    start = time.perf_counter()
    await asyncio.gather(*(client(reqs) for reqs in per_client))
    seconds = time.perf_counter() - start
    return {
        "clients": CLIENTS,
        "queries": len(stream),
        "seconds": seconds,
        "qps": len(stream) / seconds,
        "p50_ms": percentile(latencies, 50) * 1000,
        "p99_ms": percentile(latencies, 99) * 1000,
    }


async def run_open_loop(service, specs, expected, offered_qps):
    """Poisson arrivals at a fixed offered rate (seeded schedule)."""
    rng = random.Random(BENCH_SEED)
    count = CLIENTS * REQUESTS_PER_CLIENT
    arrivals, clock = [], 0.0
    for index in range(count):
        clock += rng.expovariate(offered_qps)
        arrivals.append((clock, specs[index % len(specs)]))
    latencies = []

    async def fire(delay, spec):
        await asyncio.sleep(delay)
        result = await service.submit(spec)
        assert result.digest == expected[result.session_id]
        latencies.append(result.latency_s)

    start = time.perf_counter()
    await asyncio.gather(*(fire(at, spec) for at, spec in arrivals))
    seconds = time.perf_counter() - start
    return {
        "offered_qps": offered_qps,
        "queries": count,
        "seconds": seconds,
        "achieved_qps": count / seconds,
        "p50_ms": percentile(latencies, 50) * 1000,
        "p99_ms": percentile(latencies, 99) * 1000,
    }


async def run_admission_phase(specs):
    """A tight-budget pass: record real reject/defer decisions."""
    priced_bits = []
    probe = QueryService()
    try:
        for spec in specs:
            manifest = probe.register(spec)
            if manifest.predicted is not None:
                priced_bits.append(manifest.predicted["total_bits"])
    finally:
        await probe.close()
    if not priced_bits:  # pragma: no cover - sample-dependent
        return {"budget_bits": None, "admitted": 0, "rejected": 0,
                "deferred": 0}
    budget = int(percentile(priced_bits, 50))
    policy = AdmissionPolicy(max_predicted_bits=budget, over_budget="reject")
    admitted = rejected = 0
    async with QueryService(policy=policy) as service:
        for spec in specs:
            try:
                await service.submit(spec)
                admitted += 1
            except ServeError as err:
                assert err.code == "rejected"
                assert err.detail["predicted"]["total_bits"] > budget
                rejected += 1
    return {
        "budget_bits": budget,
        "admitted": admitted,
        "rejected": rejected,
        "deferred": 0,
        "priced_sessions": len(priced_bits),
    }


def run_benchmark():
    specs = build_workload()
    expected, cold = measure_cold(specs)

    async def serve_phases():
        async with QueryService() as service:
            for spec in specs:
                service.register(spec)
            closed = await run_closed_loop(service, specs, expected)
            offered = max(20.0, round(closed["qps"] / 4.0))
            open_loop = await run_open_loop(
                service, specs, expected, offered
            )
            # Registration pinned the same digests offline.
            for spec in specs:
                manifest = service.sessions[session_id_of(spec)].manifest
                assert manifest.answer_digest == expected[
                    session_id_of(spec)
                ]
            stats = service.stats.to_dict()
        return closed, open_loop, stats

    closed, open_loop, stats = asyncio.run(serve_phases())
    admission = asyncio.run(run_admission_phase(specs))
    served = stats["served"]
    coalesced = stats["coalesced_duplicates"] + stats["stacked_queries"]
    payload = {
        "workload": {
            "seed": BENCH_SEED,
            "sessions": len(specs),
            "closed_loop_requests": CLIENTS * REQUESTS_PER_CLIENT,
            "open_loop_requests": CLIENTS * REQUESTS_PER_CLIENT,
        },
        "cold": cold,
        "closed_loop": closed,
        "open_loop": open_loop,
        "speedup": closed["qps"] / cold["qps"],
        "speedup_floor": SPEEDUP_FLOOR,
        "coalescing": {
            **{k: stats[k] for k in (
                "batches", "coalesced_duplicates", "stacked_queries",
                "stacked_groups",
            )},
            "coalesced_rate": coalesced / served if served else 0.0,
        },
        "admission": admission,
        "byte_identical": True,  # every digest asserted above
    }
    return payload


def test_serving_sustained_qps_and_latency(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    print(
        f"\nserving: cold {payload['cold']['qps']:.1f} qps | "
        f"closed-loop {payload['closed_loop']['qps']:.1f} qps "
        f"(p50 {payload['closed_loop']['p50_ms']:.2f} ms, "
        f"p99 {payload['closed_loop']['p99_ms']:.2f} ms) | "
        f"open-loop {payload['open_loop']['achieved_qps']:.1f}/"
        f"{payload['open_loop']['offered_qps']:.0f} qps "
        f"(p99 {payload['open_loop']['p99_ms']:.2f} ms) | "
        f"speedup {payload['speedup']:.1f}x | "
        f"coalesced {payload['coalescing']['coalesced_rate']:.0%} | "
        f"admission {payload['admission']['rejected']} rejected"
    )
    assert payload["byte_identical"]
    assert payload["speedup"] >= SPEEDUP_FLOOR, (
        f"warm serving speedup {payload['speedup']:.2f}x fell below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    assert payload["closed_loop"]["p99_ms"] > 0
    assert payload["coalescing"]["coalesced_duplicates"] > 0
    assert payload["coalescing"]["stacked_queries"] >= 2
    assert payload["admission"]["rejected"] > 0


def main():
    import argparse
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args()
    payload = run_benchmark()
    path = os.path.join(args.out, "BENCH_serving.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {path}; speedup {payload['speedup']:.1f}x "
          f"(floor {SPEEDUP_FLOOR}x)")
    return 0 if payload["speedup"] >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
