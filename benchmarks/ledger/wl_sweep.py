"""``fuzz-sweep``: many tiny scenarios through the lab, serial and batched.

The suite is small enough (a few hundred scenarios, N around 32) for
several passes to fit in the window, and every pass runs the identical
suite from cold structural memos and a cold plan cache: a serial
``run_suite(jobs=1, cache=None)`` pass, then a
``run_suite_batched(cache=None, baseline_sample=0)`` pass, alternating.
Per-scenario planning, memo sharing across the planes of an identity
and the lab's own bookkeeping dominate; kernels and the engine do
little.  Serial against batched is one layer used two ways.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.faq.plan import PLAN_CACHE
from repro.lab.batch import run_suite_batched
from repro.lab.cache import ResultCache
from repro.lab.report import (
    all_parity_failures,
    artifact_bytes,
    bound_violations,
    cost_mismatches,
)
from repro.lab.runner import SuiteRun, run_suite
from repro.lab.spec import SuiteSpec

from spans import SpanRecorder
from stats import Tally, best, median
from wl_pipeline import (
    cache_counts,
    engine_metrics,
    planning_probes,
    staged_ledger,
)


def warm_up(suite: SuiteSpec, planes: int) -> None:
    """One identity through both runners: lazy imports, first-call
    caches."""
    head = SuiteSpec(name=suite.name, scenarios=suite.scenarios[:planes])
    run_suite(head, jobs=1, cache=None)
    run_suite_batched(head, cache=None, baseline_sample=0)


def _records(run: SuiteRun) -> List[Dict[str, Any]]:
    return [result.deterministic_record() for result in run.results]


def verify_pass(tally: Tally, kind: str, run: SuiteRun,
                reference: List[str]) -> None:
    """One attempted operation per scenario.  The lab's gates
    name the scenarios they reject; a batched (or repeated) pass must
    also reproduce the first serial pass's records byte for byte."""
    records = _records(run)
    rejected = (
        [f"{r['label']}: wrong answer" for r in records if not r["correct"]]
        + all_parity_failures(records) + bound_violations(records)
        + cost_mismatches(records)
    )
    rendered = [json.dumps(r, sort_keys=True) for r in records]
    drifted = sum(1 for a, b in zip(rendered, reference) if a != b)
    failed = min(len(records), len(rejected) + drifted)
    for index in range(len(records)):
        tally.record(
            index >= failed,
            f"{kind} pass: {len(rejected)} gate rejection(s) "
            f"{rejected[:2]}, {drifted} record(s) differ from the first "
            f"serial pass",
        )


def run(suite: SuiteSpec, info: Dict[str, Any], seconds: float,
        rec: Optional[SpanRecorder], tally: Tally, scratch: str,
        report: Callable[..., None]) -> Dict[str, float]:
    """Measure for ``seconds``; returns this run's metrics."""
    passes: Dict[str, List[SuiteRun]] = {"serial": [], "batched": []}
    walls: Dict[str, List[float]] = {"serial": [], "batched": []}
    runners = {
        "serial": lambda: run_suite(suite, jobs=1, cache=None),
        "batched": lambda: run_suite_batched(
            suite, cache=None, baseline_sample=0
        ),
    }
    caches: Dict[str, float] = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls["batched"]) < 2:
        for kind, runner in runners.items():
            PLAN_CACHE.clear()
            gc.collect()  # every pass starts from the same collector state
            t0 = time.perf_counter()
            result = runner()
            elapsed = time.perf_counter() - t0
            if rec is not None:
                _pass_spans(rec, kind, t0, elapsed, result)
            if kind == "serial":
                caches = cache_counts()
            passes[kind].append(result)
            walls[kind].append(elapsed)

    reference = [
        json.dumps(r, sort_keys=True) for r in _records(passes["serial"][0])
    ]
    for kind in ("serial", "batched"):
        for result in passes[kind]:
            verify_pass(tally, kind, result, reference)

    size = len(suite)
    for kind, name in (("serial", "scenarios_per_s"),
                       ("batched", "batched_scenarios_per_s")):
        rates = [size / wall for wall in walls[kind]]
        report(name, median(rates), "1/s", n=len(rates), best=max(rates))
    report("fuzz.jit_available", float(info["jit_available"]), "bool")
    report("fuzz.planes_dropped_as_clones",
           float(info["planes_dropped_as_clones"]), "count")

    first = passes["serial"][0]
    if rec is None:
        return {
            "primary_ms": best(walls["serial"]) / size * 1000.0,
            "secondary_ms": best(walls["batched"]) / size * 1000.0,
            "sim_rounds": float(sum(r.measured_rounds for r in first.results)),
            "sim_bits": float(sum(r.total_bits for r in first.results)),
        }
    fastest = passes["serial"][walls["serial"].index(best(walls["serial"]))]
    metrics = _layer_metrics(suite, info, rec, fastest, passes["batched"][0])
    metrics.update(caches)
    metrics.update(_cache_probes(suite, scratch))
    return metrics


def _pass_spans(rec: SpanRecorder, kind: str, start: float, elapsed: float,
                result: SuiteRun) -> None:
    """One root per pass; the scenarios' own ``wall_time`` laid end to
    end beneath it (the runner is serial, so they do not overlap).
    What they leave uncovered is the lab's own bookkeeping."""
    root = rec.add(f"op.{kind}", start, start + elapsed, lane=kind,
                   scenarios=len(result.results),
                   lab_wall_time=result.wall_time)
    cursor = start
    seen = set()
    for scenario in result.results:
        if id(scenario) in seen:
            continue
        seen.add(id(scenario))
        rec.add("lab.scenario", cursor, cursor + scenario.wall_time,
                parent=root, label=scenario.spec.label, laid_out=True)
        cursor += scenario.wall_time


def _plane(result) -> str:
    spec = result.spec
    return f"{spec.engine}-{spec.solver}-{spec.backend}"


def _layer_metrics(suite: SuiteSpec, info: Dict[str, Any], rec: SpanRecorder,
                   serial: SuiteRun, batched: SuiteRun) -> Dict[str, float]:
    planes = len(suite) // info["identities"]
    results = serial.results
    firsts = [r.wall_time for r in results[::planes]]
    laters = [r.wall_time for i, r in enumerate(results) if i % planes]
    by_plane: Dict[str, List[float]] = {}
    for result in results:
        if result.spec.kernels == "numpy":
            by_plane.setdefault(_plane(result), []).append(result.wall_time)
    observed: Dict[str, int] = {}
    for result in results:
        for name, count in result.observability.items():
            observed[name] = observed.get(name, 0) + count
    serial_roots = rec.roots("op.serial")
    self_times = rec.self_times()
    bookkeeping = [self_times[root.index] for root in serial_roots]
    # The identities' reference planes, cold then warm, layer by layer.
    metrics = staged_ledger(suite.scenarios[::planes], rec)
    metrics.update(planning_probes(suite.scenarios[::planes], repeats=1))
    metrics.update(engine_metrics(
        sum(r.measured_rounds for r in results), observed,
        sum(r.protocol_wall_time for r in results),
    ))
    metrics.update({
        "lab.runner.first_plane_s": median(firsts),
        "lab.runner.later_plane_s": median(laters),
        # Here the operation is a pass and its spans are the scenarios.
        "lab.unattributed.cold_s": median(bookkeeping),
        "lab.batch.groups": float(batched.batch["groups"]),
        "lab.batch.stacked_members": float(batched.batch["grouped_scenarios"]),
        "lab.batch.twins": float(batched.batch["plane_twins"]),
        # The pass is timed by the span and by the runner itself; the
        # ratio is what the span's two clock reads add.
        "ledger.trace_overhead_ratio": median([
            root.duration / root.args["lab_wall_time"]
            for root in serial_roots
        ]),
    })
    for plane, times in by_plane.items():
        metrics[f"lab.plane.{plane}.s"] = median(times)
    return metrics


def _cache_probes(suite: SuiteSpec, scratch: str) -> Dict[str, float]:
    """The read path beside the write path: fill a result cache, then
    time a pass served entirely from it, and the artifact rendering."""
    cache_dir = os.path.join(scratch, "lab_cache")
    run_suite(suite, jobs=1, cache=ResultCache(cache_dir))
    t0 = time.perf_counter()
    replay = run_suite(suite, jobs=1, cache=ResultCache(cache_dir))
    t1 = time.perf_counter()
    payload = artifact_bytes(replay)
    t2 = time.perf_counter()
    if not payload:
        raise RuntimeError("empty lab artifact")
    return {
        "lab.cache.replay_s": t1 - t0,
        "lab.cache.hit_ratio": replay.hit_rate,
        "lab.report.artifact_s": t2 - t1,
    }
