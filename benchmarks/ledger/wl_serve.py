"""The two serving workloads over one ``QueryService()``.

``serve-closed``: two closed-loop clients (callers that wait for each
reply before sending the next), so the event-loop thread plus the
service's solver thread equal the two cores.  Measures sustained
capacity, where coalescing and the batch window help.

``serve-poisson``: open-loop Poisson arrivals at two fixed rates well
below capacity, half the window each (independent users).  Every
request is timed from the moment it was *due*, and how late the
generator ran is reported.  The batch window that helps
``serve-closed`` is pure added latency here, so a gain on one that
costs the other shows.

Both run the default service (``workers=0``, ``batch_window=0.002``)
over the same registered sessions, chosen uniformly by a seeded stream.
All digest checks happen after the timed window.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lab.runner import execute_scenario
from repro.lab.spec import ScenarioSpec
from repro.serve import (
    QueryService,
    ServeError,
    SessionManifest,
    SharedRelationStore,
    attach_query,
    publish_query,
    session_id_of,
)

from inputs import POISSON_RATES, poisson_schedule
from spans import SpanRecorder
from stats import Tally, median, percentile
from wl_pipeline import planning_probes, staged_ledger

#: Closed-loop callers: with the solver thread, one per core.
CLIENTS = 2

#: A request slower than this counts as failed.  The give-up point, not
#: the latency limit: the slowest request seen while sizing took 0.75 s
#: (a stacked solve of the large sessions behind a full collection).
REQUEST_TIMEOUT_S = 5.0

#: Sample: (stream, session index, due, sent, done, digest or None);
#: the stream is the client (closed loop) or the rate phase (open loop).
Sample = Tuple[int, int, float, float, float, Optional[str]]


async def start_service(specs: Sequence[ScenarioSpec]) -> QueryService:
    """Set-up as a deployment pays it: register every session (the
    offline phase), start the service, serve each session once, then
    all of them at once: the largest batch the service can form, so the
    stacked-solve buffers that set the peak memory exist before the
    window whichever sessions later coincide in it."""
    service = QueryService()
    for spec in specs:
        service.register(spec)
    await service.start()
    for spec in specs:
        await service.submit(spec)
    await asyncio.gather(*(service.submit(spec) for spec in specs))
    return service


async def _request(service: QueryService, spec: ScenarioSpec) -> Optional[str]:
    try:
        return (await service.submit(spec)).digest
    except ServeError:
        return None


async def closed_loop(service: QueryService, specs: Sequence[ScenarioSpec],
                      seed: int, seconds: float) -> List[Sample]:
    samples: List[Sample] = []
    end = time.perf_counter() + seconds

    async def client(stream: int) -> None:
        rng = random.Random(seed * 1009 + stream)
        while True:
            sent = time.perf_counter()
            if sent >= end:
                return
            index = rng.randrange(len(specs))
            digest = await _request(service, specs[index])
            samples.append(
                (stream, index, sent, sent, time.perf_counter(), digest)
            )

    await asyncio.gather(*(client(stream) for stream in range(CLIENTS)))
    return samples


async def open_loop(service: QueryService, specs: Sequence[ScenarioSpec],
                    seed: int, seconds: float) -> List[Sample]:
    samples: List[Sample] = []
    rng = random.Random(seed * 1009)
    start = time.perf_counter()

    async def fire(phase: int, index: int, due: float) -> None:
        sent = time.perf_counter()
        digest = await _request(service, specs[index])
        samples.append((phase, index, due, sent, time.perf_counter(), digest))

    tasks = []
    for offset, phase in poisson_schedule(seed, seconds):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(
            fire(phase, rng.randrange(len(specs)), start + offset)
        ))
    await asyncio.gather(*tasks)
    return samples


def _latencies_ms(samples: Sequence[Sample]) -> List[float]:
    """Each request's time from when it was due to its reply."""
    return [(done - due) * 1000.0 for _, _, due, _, done, _ in samples]


def verify(tally: Tally, specs: Sequence[ScenarioSpec],
           manifests: Sequence[SessionManifest],
           samples: Sequence[Sample]) -> None:
    """Every served digest must equal the session manifest's and a cold
    run of the whole pipeline (``Planner.execute`` behind
    ``execute_scenario``), computed here, outside the window."""
    expected = []
    for spec, manifest in zip(specs, manifests):
        cold = execute_scenario(spec)
        expected.append(
            cold.answer_digest
            if cold.correct and cold.answer_digest == manifest.answer_digest
            else None
        )
    for _stream, index, due, _sent, done, digest in samples:
        problems = []
        if digest is None:
            problems.append("refused or errored")
        elif expected[index] is None:
            problems.append("manifest digest differs from a cold run")
        elif digest != expected[index]:
            problems.append("served digest differs from a cold run")
        if done - due > REQUEST_TIMEOUT_S:
            problems.append(f"took {done - due:.3f} s")
        tally.record(not problems,
                     f"{specs[index].label}: {', '.join(problems)}")


def run(mode: str, specs: Sequence[ScenarioSpec], seed: int, seconds: float,
        rec: Optional[SpanRecorder], tally: Tally,
        setup_done: Callable[[], None], setup_only: bool,
        report: Callable[..., None]) -> Dict[str, float]:
    """Set up, measure for ``seconds``, tear down, verify."""
    layers: Dict[str, float] = {}
    samples: List[Sample] = []
    manifests: List[SessionManifest] = []
    stats: Dict[str, int] = {}

    async def main() -> None:
        service = await start_service(specs)
        try:
            setup_done()
            if setup_only:
                return
            gc.collect()  # start every window from the same collector state
            before = service.stats.to_dict()
            load = closed_loop if mode == "serve-closed" else open_loop
            samples.extend(await load(service, specs, seed, seconds))
            after = service.stats.to_dict()
            stats.update({k: after[k] - before[k] for k in after})
            for spec in specs:
                manifests.append(service.sessions[session_id_of(spec)].manifest)
            if rec is not None:
                layers.update(_session_probes(service, specs, samples))
        finally:
            await service.close()

    asyncio.run(main())
    if setup_only:
        return {}
    verify(tally, specs, manifests, samples)

    latencies = _latencies_ms(samples)
    lateness = [(sent - due) * 1000.0 for _, _, due, sent, _, _ in samples]
    report("lat_p99_ms", percentile(latencies, 99), "ms", n=len(latencies),
           max=max(latencies))
    if mode == "serve-closed":
        span = max(s[4] for s in samples) - min(s[2] for s in samples)
        qps = len(samples) / span
        primary, secondary = median(latencies), 1000.0 / qps
        report("qps", qps, "1/s", n=len(samples))
        report("lat_p50_ms", primary, "ms", n=len(latencies))
    else:
        report("gen_late_p99_ms", percentile(lateness, 99), "ms",
               n=len(lateness))
        by_rate = []
        for phase, rate in enumerate(POISSON_RATES):
            at_rate = _latencies_ms([s for s in samples if s[0] == phase])
            by_rate.append(median(at_rate))
            report(f"lat_p50_ms@{rate:g}/s", by_rate[-1], "ms", n=len(at_rate))
        secondary, primary = by_rate

    if rec is None:
        # The paper's metric on a serving workload: the protocol rounds
        # and bits admission control prices the registered sessions at
        # (exact on covered cells), summed.  Moves only under a planning
        # change.
        priced = [m.predicted for m in manifests if m.predicted is not None]
        return {
            "primary_ms": primary,
            "secondary_ms": secondary,
            "sim_rounds": float(sum(p["rounds"] for p in priced)),
            "sim_bits": float(sum(p["total_bits"] for p in priced)),
        }
    # The sessions' own scenarios through the cold pipeline, layer by
    # layer: what registering them costs and where.
    layers.update(staged_ledger(specs, rec))
    layers.update(planning_probes(specs, repeats=1))
    for stream, index, due, sent, done, _digest in samples:
        root = rec.add("op.request", due, done, lane=f"stream-{stream}",
                       session=specs[index].label)
        rec.add("loadgen.late", due, sent, parent=root)
        rec.add("serve.submit", sent, done, parent=root)
    served = max(1, stats["served"])
    layers.update({
        "serve.server.batches": float(stats["batches"]),
        "serve.server.coalesced_ratio": stats["coalesced_duplicates"] / served,
        "serve.server.stacked_ratio": stats["stacked_queries"] / served,
        "serve.server.rejected": float(stats["rejected"]),
        "serve.server.failed": float(stats["failed"]),
        "serve.server.worker_crashes": float(stats["worker_crashes"]),
        "serve.lat_p99_ms": percentile(latencies, 99),
        "serve.gen_late_p99_ms": percentile(lateness, 99),
        # The spans above are assembled after the window from the
        # timestamps the untraced run takes too.
        "ledger.trace_overhead_ratio": 1.0,
    })
    return layers


def _session_probes(service: QueryService, specs: Sequence[ScenarioSpec],
                    samples: Sequence[Sample]) -> Dict[str, float]:
    """Layer timings taken on the live service's own sessions, after
    the window: the online solve, the store's publish and attach."""
    solve: List[float] = []
    register, publish, attach = [], [], []
    store = SharedRelationStore()
    try:
        for spec in specs:
            session = service.sessions[session_id_of(spec)]
            register.append(session.manifest.offline_seconds)
            reps = []
            for _ in range(5):
                t0 = time.perf_counter()
                session.execute_online()
                reps.append(time.perf_counter() - t0)
            solve.append(median(reps))
            t0 = time.perf_counter()
            payload = publish_query(store, session.session_id,
                                    session.planner.query)
            t1 = time.perf_counter()
            attached = attach_query(payload)
            t2 = time.perf_counter()
            attached.close()
            publish.append(t1 - t0)
            attach.append(t2 - t1)
    finally:
        store.close()
    per_request = [solve[index] for _, index, _, _, _, _ in samples]
    waits = [
        (done - due - solve[index]) * 1000.0
        for _, index, due, _, done, _ in samples
    ]
    return {
        "serve.session.register_s": median(register),
        "serve.store.publish_s": median(publish),
        "serve.store.attach_s": median(attach),
        "serve.session.online_solve_s": median(per_request),
        "serve.server.wait_p50_ms": median(waits),
    }
