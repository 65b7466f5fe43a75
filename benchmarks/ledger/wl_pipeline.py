"""The two pipeline workloads: ``stream-line-xl`` and ``wide-expander``.

One operation is a *cold* ``execute_scenario`` (structural memos and the
FAQ plan cache cleared first, untimed) followed by the *same call warm*.
The untraced run times the public entry point as a user calls it.  The
traced run executes the same stages through the same public functions
``execute_scenario`` calls, in the same order, with a span around each,
and interleaves plain calls so the price of the spans is measured in
the same process (``ledger.trace_overhead_ratio``).

The staged execution and the planning probes are also what the sweep
and serving workloads run over their own scenarios after their windows,
so every workload has a layer ledger of the scenarios it measures.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import kernels
from repro.core.memo import clear_all_memos, memo_stats
from repro.core.planner import Planner
from repro.decomposition import best_gyo_ghd
from repro.faq.plan import PLAN_CACHE
from repro.lab.results import answer_digest
from repro.lab.runner import (
    certify_bounds,
    certify_costs,
    execute_scenario,
    materialize_scenario,
    record_scenario_trace,
)
from repro.lab.spec import ScenarioSpec
from repro.network.mincut import mincut_partition
from repro.network.steiner import optimize_delta
from repro.obs.counters import COUNTERS, counter_delta, deterministic_view
from repro.obs.trace import RecordingTracer
from repro.obs.verify import verify_trace

from spans import SpanRecorder
from stats import Tally, best, median

#: The plane every identity is swept from; a protocol plan is shared by
#: the planes that differ from it in engine or kernel tier only.
_REFERENCE_PLANE = dict(backend="dict", engine="generator",
                        solver="operator", kernels="numpy")


def clear_caches() -> None:
    """What makes the next call cold."""
    clear_all_memos()
    PLAN_CACHE.clear()


def warm_up(spec: ScenarioSpec) -> None:
    """Lazy imports (sympy, networkx) and first-call caches, on a small
    instance of the same shape, so the first timed operation is not a
    one-off."""
    execute_scenario(spec.with_(n=min(spec.n, 256)))
    clear_caches()


def _outcome(result) -> Dict[str, Any]:
    """The fields verification needs, from a ``ScenarioResult``."""
    return {
        "correct": result.correct, "bound_ok": result.bound_ok,
        "cut_ok": result.cut_ok, "cost_model": result.cost_model,
        "digest": result.answer_digest, "rounds": result.measured_rounds,
        "bits": result.total_bits, "observability": result.observability,
    }


def staged_execute(
    spec: ScenarioSpec, rec: SpanRecorder, plans: Dict[Any, Any], kind: str
) -> Dict[str, Any]:
    """``execute_scenario`` stage by stage, one span per layer call.

    ``plans`` stands in for the runner's protocol-plan memo (emptied by
    the caller on a cold operation) so a warm operation skips plan
    compilation exactly as the product does.
    """
    with rec.span(f"op.{kind}", lane=kind, label=spec.label):
        with rec.span("lab.materialize"):
            built, topology, assignment = materialize_scenario(spec)
        before = COUNTERS.snapshot()
        with kernels.use_tier(spec.kernels):
            with rec.span("core.planner_init"):
                planner = Planner(
                    built.query, topology, assignment=assignment,
                    backend=spec.backend, engine=spec.engine,
                    solver=spec.solver,
                )
            key = (spec.with_(**_REFERENCE_PLANE).content_hash(),
                   spec.backend, spec.solver)
            plan = plans.get(key)
            if plan is None:
                with rec.span("protocols.compile_plan"):
                    plan = plans[key] = planner.compile_protocol_plan()
            with rec.span("core.planner.execute") as execute:
                report = planner.execute(max_rounds=spec.max_rounds, plan=plan)
            # The report carries the two interior intervals itself; the
            # rest of the span is Planner.predict() and report assembly.
            ran = execute.start + report.protocol_wall_time
            rec.add("protocols.run", execute.start, ran, parent=execute)
            rec.add("faq.reference_solve", ran,
                    ran + report.solver_wall_time, parent=execute)
        observability = deterministic_view(
            counter_delta(before, COUNTERS.snapshot())
        )
        with rec.span("lab.certify_bounds"):
            certification = certify_bounds(spec, planner, report)
        with rec.span("costmodel.predict"):
            cost_model = certify_costs(spec, planner, report)
        with rec.span("lab.digest"):
            digest = answer_digest(report.answer.schema, report.answer.rows)
    return {
        "correct": bool(report.correct),
        "bound_ok": certification["bound_ok"],
        "cut_ok": certification["cut_ok"], "cost_model": cost_model,
        "digest": digest, "rounds": report.measured_rounds,
        "bits": int(report.total_bits), "observability": observability,
    }


def verify_pair(tally: Tally, cold: Dict[str, Any], warm: Dict[str, Any],
                first: Dict[str, Any]) -> None:
    """Both calls of an operation count as attempted; a call fails when
    any oracle of the lab fails on it, when the warm answer differs from
    the cold one, or when its simulated statistics drift between
    repetitions."""
    for kind, out in (("cold", cold), ("warm", warm)):
        model = out["cost_model"]
        problems = [
            name for name in ("correct", "bound_ok", "cut_ok")
            if not out[name]
        ]
        if model["covered"] and model["exact_match"] is not True:
            problems.append("cost_model")
        if out["digest"] != cold["digest"]:
            problems.append("cold-vs-warm digest")
        if (out["rounds"], out["bits"]) != (first["rounds"], first["bits"]):
            problems.append("simulated statistics moved")
        tally.record(not problems, f"{kind}: {', '.join(problems)}")


def planning_probes(specs: Sequence[ScenarioSpec],
                    repeats: int) -> Dict[str, float]:
    """The public planning calls on each workload's own topology and
    hypergraph, every memo cold: medians over specs x repeats."""
    samples: Dict[str, List[float]] = {
        "network.steiner.optimize_delta_s": [],
        "network.mincut.partition_s": [],
        "decomposition.best_gyo_ghd_s": [],
        "lowerbounds.predict.cold_s": [],
    }

    def timed(name: str, call: Callable[[], Any]) -> None:
        clear_all_memos()
        start = time.perf_counter()
        call()
        samples[name].append(time.perf_counter() - start)

    for spec in specs:
        built, topology, assignment = materialize_scenario(spec)
        planner = Planner(built.query, topology, assignment=assignment,
                          backend=spec.backend)
        players = planner.players
        if len(players) < 2:
            continue  # co-located: no Steiner tree or cut to plan
        words = max(1, planner.query.max_factor_size)
        hypergraph = planner.query.hypergraph
        for _ in range(repeats):
            timed("network.steiner.optimize_delta_s",
                  lambda: optimize_delta(topology, players, words))
            timed("network.mincut.partition_s",
                  lambda: mincut_partition(topology, players))
            timed("decomposition.best_gyo_ghd_s",
                  lambda: best_gyo_ghd(hypergraph))
            timed("lowerbounds.predict.cold_s", planner.predict)
    clear_all_memos()
    return {name: median(values) for name, values in samples.items() if values}


def trace_plane_probes(spec: ScenarioSpec, repeats: int) -> Dict[str, float]:
    """What ``--trace`` costs in the product, memos warm on both sides."""
    execute_scenario(spec)
    plain, traced, replay = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        execute_scenario(spec)
        plain.append(time.perf_counter() - start)
        start = time.perf_counter()
        record_scenario_trace(spec)
        traced.append(time.perf_counter() - start)
    built, topology, assignment = materialize_scenario(spec)
    tracer = RecordingTracer()
    with kernels.use_tier(spec.kernels):
        report = Planner(
            built.query, topology, assignment=assignment,
            backend=spec.backend, engine=spec.engine, solver=spec.solver,
            tracer=tracer,
        ).execute(max_rounds=spec.max_rounds)
    for _ in range(repeats):
        start = time.perf_counter()
        verdict = verify_trace(tracer.events, report.protocol.simulation)
        replay.append(time.perf_counter() - start)
    if not verdict.ok:
        raise RuntimeError(f"trace replay mismatch: {verdict.mismatches}")
    return {
        "obs.trace.overhead_ratio": best(traced) / best(plain),
        "obs.verify.replay_s": median(replay),
    }


def run(spec: ScenarioSpec, seconds: float, rec: Optional[SpanRecorder],
        tally: Tally, report: Callable[..., None]) -> Dict[str, float]:
    """Measure for ``seconds``; returns this run's metrics."""
    plain_cold: List[float] = []
    plain_warm: List[float] = []
    staged: List[float] = []
    pairs: List[Dict[str, Any]] = []
    plans: Dict[Any, Any] = {}
    caches: Dict[str, float] = {}
    def timed(call: Callable[[], Any]) -> Any:
        # A full collection first: whether one then falls inside the
        # call depends on the call's own allocations alone, not on what
        # ran before it (one landed in two warm calls out of three when
        # the cold call's garbage was left to trigger it).
        gc.collect()
        t0 = time.perf_counter()
        result = call()
        return time.perf_counter() - t0, result

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain_cold) < 3:
        if rec is not None:
            clear_caches()
            plans.clear()
            cold_s, cold = timed(
                lambda: staged_execute(spec, rec, plans, "cold"))
            warm_s, warm = timed(
                lambda: staged_execute(spec, rec, plans, "warm"))
            staged.append(cold_s + warm_s)
            pairs.append({"cold": cold, "warm": warm})
        clear_caches()
        cold_s, cold_result = timed(lambda: execute_scenario(spec))
        warm_s, warm_result = timed(lambda: execute_scenario(spec))
        plain_cold.append(cold_s)
        plain_warm.append(warm_s)
        pairs.append({"cold": _outcome(cold_result),
                      "warm": _outcome(warm_result)})
        caches = cache_counts()

    first = pairs[0]["cold"]
    for pair in pairs:
        verify_pair(tally, pair["cold"], pair["warm"], first)

    report("cold_s", median(plain_cold), "s", n=len(plain_cold),
           best=best(plain_cold))
    report("warm_s", median(plain_warm), "s", n=len(plain_warm),
           best=best(plain_warm))
    if rec is None:
        return {
            "primary_ms": best(plain_cold) * 1000.0,
            "secondary_ms": best(plain_warm) * 1000.0,
            "sim_rounds": float(first["rounds"]),
            "sim_bits": float(first["bits"]),
        }
    metrics = span_metrics(rec)
    metrics.update(engine_metrics(
        first["rounds"], first["observability"],
        metrics["protocols.run.warm_s"],
    ))
    metrics.update(caches)
    metrics.update(planning_probes([spec], repeats=3))
    metrics.update(trace_plane_probes(spec, repeats=3))
    metrics["ledger.trace_overhead_ratio"] = best(staged) / min(
        cold + warm for cold, warm in zip(plain_cold, plain_warm)
    )
    return metrics


def cache_counts() -> Dict[str, float]:
    """Memo and plan-cache traffic since both were last cleared (the
    clear that starts a cold call, or a suite run, zeroes them)."""
    memos = memo_stats()
    hits = sum(m["hits"] for m in memos.values())
    misses = sum(m["misses"] for m in memos.values())
    return {
        "core.memo.hits": float(hits),
        "core.memo.misses": float(misses),
        "core.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "network.steiner.pack.misses": float(
            memos.get("steiner.pack", {}).get("misses", 0)
        ),
        "faq.plan_cache.hits": float(PLAN_CACHE.stats.hits),
        "faq.plan_cache.misses": float(PLAN_CACHE.stats.misses),
    }


def engine_metrics(rounds: int, observed: Dict[str, int],
                   run_seconds: float) -> Dict[str, float]:
    """Simulated rounds by how the engine advanced them, the host rate
    they were simulated at, and the kernel calls by tier."""
    forwarded = observed.get("engine.fast_forward_rounds", 0)
    batched = observed.get("engine.batched_rounds", 0)
    return {
        "network.engine.rounds": float(rounds),
        "network.engine.fast_forward_rounds": float(forwarded),
        "network.engine.batched_rounds": float(batched),
        "network.engine.stepped_rounds": float(rounds - forwarded - batched),
        "network.engine.rounds_per_s": rounds / run_seconds if run_seconds else 0.0,
        "kernels.numpy.calls": float(observed.get("kernels.numpy", 0)),
        "kernels.jit.calls": float(observed.get("kernels.jit", 0)),
    }


def staged_ledger(specs: Sequence[ScenarioSpec],
                  rec: SpanRecorder) -> Dict[str, float]:
    """Each spec cold then warm through :func:`staged_execute`: the
    layer ledger of a workload's own scenarios, taken after its window."""
    plans: Dict[Any, Any] = {}
    for spec in specs:
        clear_caches()
        plans.clear()
        for kind in ("cold", "warm"):
            gc.collect()
            staged_execute(spec, rec, plans, kind)
    return span_metrics(rec)


def span_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Medians, over the recorded cold and warm operations, of each
    layer's span; what no span covers is the operation's self time."""
    self_times = rec.self_times()
    by_kind: Dict[str, Dict[str, List[float]]] = {"cold": {}, "warm": {}}
    totals: Dict[str, List[float]] = {"cold": [], "warm": []}
    for kind in by_kind:
        for root in rec.roots(f"op.{kind}"):
            totals[kind].append(root.duration)
            by_kind[kind].setdefault("unattributed", []).append(
                self_times[root.index]
            )
            for stage in rec.children(root):
                by_kind[kind].setdefault(stage.name, []).append(stage.duration)
                for inner in rec.children(stage):
                    by_kind[kind].setdefault(inner.name, []).append(
                        inner.duration
                    )

    def layer(kind: str, name: str) -> float:
        return median(by_kind[kind].get(name, [0.0]))

    digests = by_kind["cold"]["lab.digest"] + by_kind["warm"]["lab.digest"]
    return {
        "lab.materialize.cold_s": layer("cold", "lab.materialize"),
        "core.planner_init.cold_s": layer("cold", "core.planner_init"),
        "core.planner_init.warm_s": layer("warm", "core.planner_init"),
        "protocols.compile_plan.cold_s": layer("cold", "protocols.compile_plan"),
        "protocols.run.cold_s": layer("cold", "protocols.run"),
        "protocols.run.warm_s": layer("warm", "protocols.run"),
        "faq.reference_solve.cold_s": layer("cold", "faq.reference_solve"),
        "faq.reference_solve.warm_s": layer("warm", "faq.reference_solve"),
        "costmodel.predict.cold_s": layer("cold", "costmodel.predict"),
        "lab.certify_bounds.cold_s": layer("cold", "lab.certify_bounds"),
        "lab.digest_s": median(digests),
        "lab.unattributed.cold_s": layer("cold", "unattributed"),
        "lab.unattributed.warm_s": layer("warm", "unattributed"),
        "ledger.attributed_cold_share": 1.0 - (
            layer("cold", "unattributed") / median(totals["cold"])
        ),
        "ledger.attributed_warm_share": 1.0 - (
            layer("warm", "unattributed") / median(totals["warm"])
        ),
    }
