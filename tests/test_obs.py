"""Coverage for the observability plane (:mod:`repro.obs`).

Four contracts:

* **Zero-cost when off** — a ``None`` tracer and a disabled
  :class:`~repro.obs.trace.Tracer` normalize to the *same* ``None`` fast
  path, and a traced run returns byte-identical answers/accounting to
  an untraced one.  (What tracing costs in wall-clock is measured where
  wall-clock belongs: ``obs.trace.overhead_ratio`` in the layer ledger.)
* **Self-verification** — replaying a trace's ``Send`` /
  ``CycleFastForward`` events reproduces the measured
  ``SimulationResult`` exactly on all four cost metrics, on both
  engines, including fast-forwarded compiled runs; tampered traces are
  caught with a named metric.
* **Counters** — deterministic counters ride the scenario record (and
  survive the cache byte-identically); volatile ones (plan-cache
  hit/miss) never enter the deterministic view.
* **Export** — JSONL round-trips, the Chrome trace-event payload has
  the Perfetto-loadable shape, and the terminal timeline (pinned as a
  golden file) annotates fast-forwarded stretches.
"""

import dataclasses
import json
import logging
import os
import re
import warnings

import pytest

from repro.core.planner import Planner
from repro.lab import SuiteSpec, run_suite
from repro.lab.__main__ import main as lab_main
from repro.lab.runner import (
    _execute_with_context,
    execute_scenario,
    record_scenario_trace,
)
from repro.lab.suites import register_suite
from repro.obs import (
    COUNTERS,
    DETERMINISTIC_COUNTERS,
    CounterRegistry,
    RecordingTracer,
    Tracer,
    counter_delta,
    verify_trace,
)
from repro.obs.counters import deterministic_view
from repro.obs.export import (
    events_to_chrome_trace,
    events_to_jsonl,
    format_timeline,
)
from repro.obs.logging import CaptureHandler, configure, get_logger
from repro.obs.trace import (
    PHASES,
    CycleFastForwardEvent,
    PhaseTimerEvent,
    RunStartEvent,
    SendEvent,
    normalize,
)
from repro.pipeline import build_assignment, build_query, build_topology
from test_lab_report import golden_spec, golden_suite

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _traced_run(spec):
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology)
    tracer = RecordingTracer()
    planner = Planner(
        built.query, topology, assignment=assignment, backend=spec.backend,
        engine=spec.engine, solver=spec.solver, tracer=tracer,
    )
    report = planner.execute(max_rounds=spec.max_rounds)
    return report, tracer.events


# ---------------------------------------------------------------------------
# Tracer core: normalization and the disabled fast path
# ---------------------------------------------------------------------------


def test_normalize_strips_disabled_tracers():
    # The structural basis of the zero-cost-when-off claim: a disabled
    # tracer IS the no-tracer path — engines hold None either way, so
    # the hot loop pays exactly one ``is not None`` per guard.
    assert normalize(None) is None
    assert normalize(Tracer()) is None
    live = RecordingTracer()
    assert normalize(live) is live


def test_noop_tracer_records_nothing():
    tracer = Tracer()
    tracer.run_start("generator", 10, ["a", "b"])
    tracer.round_start(1)
    tracer.send(1, "a", "b", 10)
    tracer.compute_step(1, "a", "x")
    tracer.cycle_fast_forward(start_round=1, repeats=3, end_round=4, sends=())
    tracer.phase_timer("solve", 0.1)
    assert not tracer.enabled
    assert not hasattr(tracer, "events") or not tracer.events


def test_planner_accepts_and_normalizes_disabled_tracer():
    spec = golden_spec()
    built = build_query(spec)
    topology = build_topology(spec)
    planner = Planner(
        built.query, topology,
        assignment=build_assignment(spec, built, topology),
        tracer=Tracer(),
    )
    assert planner.tracer is None


# ---------------------------------------------------------------------------
# Byte-identical traced vs untraced runs
# ---------------------------------------------------------------------------


def test_traced_run_is_byte_identical_to_untraced():
    for engine in ("generator", "compiled"):
        spec = golden_spec(engine=engine)
        plain = execute_scenario(spec)
        traced = execute_scenario(spec, trace=True)
        assert traced.trace is not None and traced.trace["verified"]
        assert plain.trace is None
        # The deterministic record — answers, rounds, bits, counters —
        # must not depend on whether the run was observed.
        assert (
            plain.deterministic_record() == traced.deterministic_record()
        )


# ---------------------------------------------------------------------------
# Self-verification: replay == measured, both engines, fast-forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["generator", "compiled"])
def test_replay_reproduces_measured_run(engine):
    report, events = _traced_run(golden_spec(engine=engine))
    simulation = report.protocol.simulation
    verdict = verify_trace(events, simulation)
    assert verdict.ok, verdict.mismatches
    assert verdict.replayed.rounds == simulation.rounds
    assert verdict.replayed.total_bits == simulation.total_bits
    assert verdict.replayed.bits_per_edge == dict(simulation.bits_per_edge)
    assert (
        verdict.replayed.max_edge_bits_per_round
        == simulation.max_edge_bits_per_round
    )


def test_replay_covers_fast_forwarded_rounds():
    # The compiled engine skips steady-state cycles arithmetically; the
    # trace must carry the jump so the replay covers the skipped rounds.
    report, events = _traced_run(golden_spec(engine="compiled"))
    jumps = [e for e in events if isinstance(e, CycleFastForwardEvent)]
    assert jumps, "expected the compiled run to fast-forward"
    assert all(
        j.end_round == j.start_round + j.repeats and j.sends for j in jumps
    )
    verdict = verify_trace(events, report.protocol.simulation)
    assert verdict.ok, verdict.mismatches


def test_tampered_trace_is_caught_with_named_metric():
    report, events = _traced_run(golden_spec())
    idx, send = next(
        (i, e) for i, e in enumerate(events) if isinstance(e, SendEvent)
    )
    tampered = list(events)
    tampered[idx] = dataclasses.replace(send, bits=send.bits + 1)
    verdict = verify_trace(tampered, report.protocol.simulation)
    assert not verdict.ok
    assert any("total_bits" in m for m in verdict.mismatches)
    dropped = [e for e in events if not isinstance(e, SendEvent)]
    verdict = verify_trace(dropped, report.protocol.simulation)
    assert not verdict.ok


def test_phase_timers_cover_the_pipeline():
    # Interning is no phase of a run: the compiled planes read the
    # query's interned factors, made once per query, even on the
    # columnar compiled-solver plane where every factor is pooled.
    _report, events = _traced_run(
        golden_spec(solver="compiled", backend="columnar")
    )
    phases = {e.phase for e in events if isinstance(e, PhaseTimerEvent)}
    assert phases == set(PHASES) == {"plan_compile", "protocol", "solve"}


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def test_counter_registry_and_delta():
    reg = CounterRegistry()
    reg.increment("a")
    reg.increment("a", 2)
    reg.increment("b")
    assert reg.get("a") == 3 and reg.get("missing") == 0
    before = reg.snapshot()
    reg.increment("a", 4)
    reg.increment("c")
    assert counter_delta(before, reg.snapshot()) == {"a": 4, "c": 1}
    reg.reset()
    assert reg.snapshot() == {}


def test_deterministic_view_excludes_volatile_counters():
    # The Steiner scan's counters depend on process warmth (which plane
    # of an identity missed the packing memo) — a cached-vs-fresh or
    # serial-vs-parallel run would diverge if they entered records.
    delta = {"steiner.states_expanded": 5, "steiner.states_shared": 2,
             "kernel.columnar": 7, "unknown.counter": 1}
    view = deterministic_view(delta)
    assert view == {"kernel.columnar": 7}
    assert "steiner.states_expanded" not in DETERMINISTIC_COUNTERS
    assert "plan_cache.lookups" in DETERMINISTIC_COUNTERS
    assert "plan_cache.uncacheable" in DETERMINISTIC_COUNTERS


def test_scenario_records_carry_deterministic_counters():
    spec = golden_spec(engine="compiled", backend="columnar",
                       solver="compiled")
    result = execute_scenario(spec)
    obs = result.observability
    assert obs is not None
    assert set(obs) <= set(DETERMINISTIC_COUNTERS)
    assert obs.get("engine.fast_forward", 0) >= 1
    assert obs.get("solver.fused_vectorized", 0) >= 1
    # And they survive the artifact/cache round trip bit-for-bit.
    rec = result.deterministic_record()
    assert rec["observability"] == obs
    from repro.lab.results import ScenarioResult

    assert ScenarioResult.from_record(rec).observability == obs


def test_plan_cache_counters_fire():
    # Every cacheable lookup counts, hit or miss; an uncacheable query
    # (a custom aggregate callable) counts apart and is never looked up.
    from repro.faq import PLAN_CACHE, Aggregate, FAQQuery
    from repro.faq.plan import cached_elimination_order
    from repro.hypergraph import Hypergraph
    from repro.semiring import COUNTING, Factor

    def query(**aggregates):
        return FAQQuery(
            hypergraph=Hypergraph({"R": ("A", "B")}),
            factors={"R": Factor(("A", "B"), {(1, 1): 2}, COUNTING)},
            domains={"A": (1,), "B": (1,)},
            free_vars=("B",),
            semiring=COUNTING,
            aggregates=aggregates,
        )

    PLAN_CACHE.clear()
    before = COUNTERS.snapshot()
    custom = query(A=Aggregate("max", "semiring", combine=max))
    assert cached_elimination_order(custom, None, lambda: ("A",)) == ("A",)
    plain = query()
    for _ in range(2):
        assert cached_elimination_order(plain, None, lambda: ("A",)) == ("A",)
    delta = counter_delta(before, COUNTERS.snapshot())
    assert delta["plan_cache.uncacheable"] == 1
    assert delta["plan_cache.lookups"] == 2
    assert (PLAN_CACHE.stats.hits, PLAN_CACHE.stats.misses) == (1, 1)


# ---------------------------------------------------------------------------
# Export surfaces
# ---------------------------------------------------------------------------


def test_jsonl_export_round_trips():
    _report, events = _traced_run(golden_spec(engine="compiled"))
    lines = events_to_jsonl(events).splitlines()
    assert len(lines) == len(events)
    parsed = [json.loads(line) for line in lines]
    types = {p["type"] for p in parsed}
    assert {"RunStart", "RoundStart", "Send",
            "CycleFastForward", "PhaseTimer"} <= types
    sends = [p for p in parsed if p["type"] == "Send"]
    originals = [e for e in events if isinstance(e, SendEvent)]
    assert [s["bits"] for s in sends] == [e.bits for e in originals]


def test_chrome_trace_has_perfetto_shape():
    _report, events = _traced_run(golden_spec(engine="compiled"))
    payload = events_to_chrome_trace(events)
    assert payload["displayTimeUnit"] == "ms"
    trace = payload["traceEvents"]
    assert trace
    assert all({"ph", "pid", "tid", "name"} <= set(e) for e in trace)
    assert all(e["ph"] in ("M", "X") for e in trace)
    # One process for nodes, one for links, named via metadata events.
    names = {
        e["args"]["name"]
        for e in trace
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {"nodes", "links"}
    # A send fills its share of one round; a jump spans its rounds.
    slices = [e for e in trace if e["ph"] == "X" and e["pid"] == 2]
    sends = [e for e in slices if "repeats" not in e["args"]]
    jumped = [e for e in slices if "repeats" in e["args"]]
    assert sends and all(1 <= e["dur"] <= 1000 for e in sends)
    assert jumped and all(
        e["dur"] == 1000 * e["args"]["repeats"]
        and e["ts"] == 1000 * (e["args"]["start_round"] + 1)
        for e in jumped
    )
    json.dumps(payload)  # strictly serializable


def _link_track_bits(payload):
    """``args.bits`` summed per link track of a Chrome trace payload."""
    names = {
        e["tid"]: e["args"]["name"] for e in payload["traceEvents"]
        if e["ph"] == "M" and e["pid"] == 2 and e["name"] == "thread_name"
    }
    totals = {}
    for e in payload["traceEvents"]:
        if e["ph"] == "X" and e["pid"] == 2:
            link = names[e["tid"]]
            totals[link] = totals.get(link, 0) + e["args"]["bits"]
    return totals


def test_chrome_link_tracks_carry_every_bit_of_their_link():
    # A jumped link is busy through the jump, not idle: the slices of
    # each link track sum to the link's bits, jumped rounds included.
    report, events = _traced_run(golden_spec(engine="compiled"))
    simulation = report.protocol.simulation
    assert any(isinstance(e, CycleFastForwardEvent) for e in events)
    assert _link_track_bits(events_to_chrome_trace(events)) == {
        f"{src}->{dst}": bits
        for (src, dst), bits in simulation.bits_per_edge.items()
    }


def test_timeline_matches_golden():
    _report, events = _traced_run(golden_spec(engine="compiled"))
    rendered = format_timeline(events)
    with open(os.path.join(GOLDEN_DIR, "TIMELINE_golden.txt")) as fh:
        expected = fh.read()
    assert rendered + "\n" == expected, (
        "terminal timeline drifted from tests/golden/TIMELINE_golden.txt; "
        "regenerate it if the change is intentional (see golden README)"
    )
    assert ">> fast-forward" in rendered


def test_timeline_totals_count_jumped_rounds():
    report, events = _traced_run(golden_spec(engine="compiled"))
    simulation = report.protocol.simulation
    assert any(isinstance(e, CycleFastForwardEvent) for e in events)
    totals = re.search(
        r"totals: (\d+) bits over (\d+) link\(s\); busiest (\S+) with "
        r"(\d+) bits",
        format_timeline(events),
    )
    total, links, busiest, busiest_bits = totals.groups()
    assert int(total) == simulation.total_bits
    assert int(links) == len(simulation.bits_per_edge)
    assert int(busiest_bits) == max(simulation.bits_per_edge.values())
    src, dst = busiest.split("->")
    assert simulation.bits_per_edge[(src, dst)] == int(busiest_bits)


def test_timeline_elides_explicitly():
    events = [RunStartEvent("generator", 4, ["a", "b"])]
    for r in range(1, 41):
        events.append(SendEvent(round=r, src="a", dst="b", bits=4))
    text = format_timeline(events, max_rounds=10)
    assert "round(s) elided" in text
    assert "totals: 160 bits" in text
    assert format_timeline([events[0]]).endswith("no traffic traced")


# ---------------------------------------------------------------------------
# Logging + worker capture
# ---------------------------------------------------------------------------


def test_configure_is_idempotent_and_validates():
    logger = configure("info")
    cli_handlers = [
        h for h in logger.handlers if getattr(h, "_repro_cli", False)
    ]
    assert len(cli_handlers) == 1
    configure("debug")
    cli_handlers = [
        h for h in logger.handlers if getattr(h, "_repro_cli", False)
    ]
    assert len(cli_handlers) == 1
    assert logger.level == logging.DEBUG
    with pytest.raises(ValueError):
        configure("loud")
    configure("info")


def test_worker_capture_preserves_logs_and_warnings(monkeypatch):
    # A scenario that logs and warns mid-execution: both must survive
    # onto the (picklable) result instead of dying with the worker's
    # stderr.
    import repro.pipeline as pipeline_mod
    from repro.core.memo import clear_all_memos

    real_build = pipeline_mod.build_query

    def noisy_build(spec):
        get_logger("test").info("building %s", spec.query)
        warnings.warn("synthetic scenario warning")
        return real_build(spec)

    monkeypatch.setattr(pipeline_mod, "build_query", noisy_build)
    # Materialization is memoized across a process; start cold so the
    # noisy build actually runs.
    clear_all_memos()
    result = _execute_with_context(golden_spec())
    assert any(
        "building hard-star" in line for line in result.captured_logs
    )
    assert any(
        "synthetic scenario warning" in line
        for line in result.captured_logs
    )
    # And the coordinator re-emits them through the progress sink.
    emitted = []
    run = run_suite(
        SuiteSpec("one", (golden_spec(),)), log=emitted.append
    )
    assert any("synthetic scenario warning" in line for line in emitted)
    assert run.results[0].captured_logs


# ---------------------------------------------------------------------------
# CLI: trace subcommand + run --trace gate
# ---------------------------------------------------------------------------


def test_cli_trace_subcommand_writes_and_verifies(tmp_path, capsys):
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(
        ["trace", "golden", "--scenario", "compiled",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "trace verified" in out
    assert ">> fast-forward" in out
    written = sorted(os.listdir(tmp_path))
    assert any(name.endswith(".jsonl") for name in written)
    (chrome,) = [n for n in written if n.endswith(".chrome.json")]
    payload = json.load(open(os.path.join(tmp_path, chrome)))
    assert payload["traceEvents"]
    assert all(
        {"ph", "pid", "tid", "name"} <= set(e)
        for e in payload["traceEvents"]
    )


def test_cli_trace_unknown_scenario_lists_labels(tmp_path, capsys):
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(
        ["trace", "golden", "--scenario", "no-such-label",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "no scenario" in out and "golden-star" in out


def test_cli_run_trace_gates_on_replay(tmp_path, capsys, monkeypatch):
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(
        ["run", "golden", "--out", str(tmp_path), "--no-cache",
         "--quiet", "--trace"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "trace: 3 run(s) traced, 3 replay-verified, 0 mismatch(es)" in out

    # Sabotage the replay: every verdict comes back mismatched.
    from repro.obs.verify import ReplayedTotals, TraceVerdict

    monkeypatch.setattr(
        "repro.lab.runner.verify_trace",
        lambda events, sim: TraceVerdict(
            ok=False,
            mismatches=["total_bits replayed=0 measured=1"],
            replayed=ReplayedTotals(0, 0, {}, 0),
        ),
    )
    code = lab_main(
        ["run", "golden", "--out", str(tmp_path), "--no-cache",
         "--quiet", "--trace"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "TRACE MISMATCHES (3)" in out
    assert "total_bits replayed=0" in out


def test_cli_log_level_filters_progress(tmp_path, capsys):
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(
        ["run", "golden", "--out", str(tmp_path), "--no-cache",
         "--log-level", "error"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[run  ]" not in out and "[done ]" not in out
    code = lab_main(
        ["run", "golden", "--out", str(tmp_path), "--no-cache"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[cache]" in out or "[run  ]" in out
