"""Two-plane engine tests: compiled runs vs the generator engine.

The parity contract is exact, not approximate: for every scenario, the
compiled run must produce byte-identical answers AND identical round
counts, total bits, per-(directed-)edge bits and busiest-link loads.
A compiled run does its data work once and reads its clock from the
count plane (:mod:`repro.protocols.timing`); the generator engine is
the independent clock.  The headline test sweeps every Table 1 suite —
the acceptance gate of the two-plane refactor.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.core.memo import clear_all_memos
from repro.core.planner import Planner, assign_round_robin
from repro.costmodel import evaluate_timing, extract_skeleton
from repro.lab.generate import generate_scenarios
from repro.lab.results import answer_digest
from repro.lab.runner import execute_scenario, record_scenario_trace
from repro.lab.spec import ScenarioSpec
from repro.lab.suites import get_suite
from repro.network.simulator import SimulationError
from repro.obs.counters import COUNTERS, counter_delta, deterministic_view
from repro.obs.trace import (
    CycleFastForwardEvent,
    PhaseTimerEvent,
    RecordingTracer,
    SendEvent,
    event_to_json_dict,
)
from repro.pipeline import (
    build_assignment,
    build_query,
    build_topology,
    plan_scenario,
    predicted_metrics,
)
from repro.protocols import compile_plan, run_distributed_faq, validate_engine
from repro.protocols import timing as timing_module

DEFAULT_SEED = 20190625


def _run_both(spec: ScenarioSpec):
    """Run one scenario's protocol on both engines."""
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology) or assign_round_robin(
        built.query, topology
    )
    query = (
        built.query.with_backend(spec.backend) if spec.backend else built.query
    )
    gen = run_distributed_faq(query, topology, assignment, engine="generator")
    comp = run_distributed_faq(query, topology, assignment, engine="compiled")
    return gen, comp


def _assert_parity(gen, comp, label=""):
    assert comp.answer == gen.answer, f"{label}: answers differ"
    assert comp.rounds == gen.rounds, f"{label}: rounds differ"
    assert comp.total_bits == gen.total_bits, f"{label}: total bits differ"
    sim_g, sim_c = gen.simulation, comp.simulation
    assert sim_c.bits_per_edge == sim_g.bits_per_edge, label
    assert sim_c.max_edge_bits_per_round == sim_g.max_edge_bits_per_round, label


def _table1_specs():
    return [
        spec.with_(engine="generator") for spec in get_suite("table1").scenarios
    ]


@pytest.mark.parametrize(
    "spec", _table1_specs(), ids=lambda s: s.label.split("/s")[0]
)
def test_engine_parity_on_every_table1_scenario(spec):
    """The acceptance gate: byte-identical answers and accounting on the
    full Table 1 sweep."""
    gen, comp = _run_both(spec)
    _assert_parity(gen, comp, spec.label)


@pytest.mark.parametrize("backend", [None, "columnar"])
def test_engine_parity_on_columnar_streaming_scenario(backend):
    spec = ScenarioSpec(
        family="scaling-xl", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=512,
        assignment="worst-case", backend=backend, seed=DEFAULT_SEED,
    )
    gen, comp = _run_both(spec)
    _assert_parity(gen, comp, spec.label)


@pytest.mark.parametrize(
    "semiring", ["real", "min-plus", "max-plus", "max-times", "counting"]
)
def test_engine_parity_across_semirings(semiring):
    """Float semirings too: the compiled value plane replicates the
    generator's operand order, so even IEEE results agree exactly."""
    spec = ScenarioSpec(
        family="semiring", query="tree", query_params={"edges": 5},
        topology="grid", topology_params={"rows": 2, "cols": 3},
        n=32, domain_size=12, semiring=semiring, seed=7,
    )
    gen, comp = _run_both(spec)
    _assert_parity(gen, comp, spec.label)


def test_engine_parity_on_a_star_with_three_contributions():
    """The fuzz scenario that tripped the compiled scorer's ``id``-keyed
    array memo (``IndexError`` in a fresh interpreter, allocator
    permitting): three contributions to one star, dictionaries of
    lengths 5 to 8."""
    spec = dataclasses.replace(
        list(generate_scenarios(2, 100))[40], backend="dict")
    gen, comp = _run_both(spec)
    _assert_parity(gen, comp, spec.label)
    assert (comp.rounds, comp.total_bits) == (20, 240)


def test_engine_parity_with_relayed_final_phase():
    """A topology where final-phase routing crosses relays (items wider
    than the link straddle rounds through the route's bit queue)."""
    spec = ScenarioSpec(
        family="relay", query="tree", query_params={"edges": 5},
        topology="barbell", topology_params={"clique_size": 3, "path_len": 1},
        n=48, domain_size=24, semiring="counting", seed=DEFAULT_SEED,
    )
    gen, comp = _run_both(spec)
    _assert_parity(gen, comp, spec.label)


def _assert_same_result(fast, slow):
    """Every field equal, and the per-edge map in the same key order."""
    assert fast == slow
    assert list(fast.bits_per_edge.items()) == list(slow.bits_per_edge.items())


def _skeleton(spec):
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology) or assign_round_robin(
        built.query, topology
    )
    plan = compile_plan(built.query, topology, assignment)
    return extract_skeleton(plan, tuple(topology.nodes), built.query)


def _run_plan(spec, fast_forward):
    """The count plane's run of ``spec``'s plan: jumping, or stepping
    every stream every round (no stream settles)."""
    skeleton = _skeleton(spec)
    if fast_forward:
        return evaluate_timing(skeleton)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timing_module, "_settle", lambda *_args: [])
        return evaluate_timing(skeleton)


def test_fast_forward_is_accounting_neutral():
    """Dormant streams and skipped rounds change wall-clock only:
    stepping every stream every round must give identical results."""
    spec = ScenarioSpec(
        family="ffwd", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=256,
        assignment="worst-case", seed=DEFAULT_SEED,
    )
    _assert_same_result(_run_plan(spec, True), _run_plan(spec, False))


def test_engine_parity_planner_reports():
    """Planner(engine=...) reports identical rounds/bits/link stats."""
    spec = ScenarioSpec(
        family="planner", query="degenerate",
        query_params={"vertices": 5, "d": 2}, topology="clique",
        topology_params={"n": 4}, n=32, domain_size=32, seed=DEFAULT_SEED,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    reports = {}
    for engine in ("generator", "compiled"):
        planner = Planner(built.query, topology, engine=engine)
        reports[engine] = planner.execute()
    gen, comp = reports["generator"], reports["compiled"]
    assert comp.answer == gen.answer
    assert comp.correct and gen.correct
    assert comp.measured_rounds == gen.measured_rounds
    assert comp.total_bits == gen.total_bits
    assert comp.link_utilization == gen.link_utilization
    assert 0.0 < comp.link_utilization <= 1.0


_PLANES = {
    "fast": dict(backend="columnar", solver="compiled"),
    "reference": dict(backend="dict", solver="operator"),
}


@pytest.mark.parametrize("engine", ["generator", "compiled"])
@pytest.mark.parametrize(
    "own, twin", [("fast", "reference"), ("reference", "fast")]
)
def test_a_twin_planes_plan_runs_on_this_planners_plane(engine, own, twin):
    """A plan holds no relations and no solver: executing the plan a
    twin plane compiled runs this planner's data plane and solver —
    same kernel/solver counters, answer and accounting as with the
    plan it compiled itself.  (With the compiler's query on the plan,
    a columnar planner handed a dict twin's plan ran the dict data
    plane without a word.)"""
    spec = ScenarioSpec(
        family="twin-plan", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=256,
        assignment="worst-case", seed=11,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology)

    def planner(plane):
        return Planner(
            built.query, topology, assignment=assignment, engine=engine,
            **_PLANES[plane],
        )

    def observe(plan):
        before = COUNTERS.snapshot()
        report = planner(own).execute(plan=plan)
        delta = deterministic_view(counter_delta(before, COUNTERS.snapshot()))
        simulation = report.protocol.simulation
        return (
            delta,
            answer_digest(report.answer.schema, report.answer.rows),
            report.measured_rounds,
            simulation.bits_per_edge,
        )

    mine = observe(planner(own).compile_protocol_plan())
    theirs = observe(planner(twin).compile_protocol_plan())
    assert theirs == mine
    # ... and the plane is the planner's own on both sides.
    assert ("kernel.columnar" in mine[0]) == (own == "fast")
    assert ("kernel.dict_fallback" in mine[0]) == (own == "reference")
    assert mine[2] == 259


def test_validate_engine_rejects_unknown():
    with pytest.raises(ValueError, match="unknown engine"):
        validate_engine("turbo")
    with pytest.raises(ValueError, match="unknown engine"):
        run_distributed_faq(None, None, None, engine="turbo")


# ---------------------------------------------------------------------------
# A compiled run's clock
# ---------------------------------------------------------------------------


def _faq_inputs(spec):
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology) or assign_round_robin(
        built.query, topology
    )
    return built.query, topology, assignment


@pytest.mark.parametrize("mode", ["cold", "warm", "traced"])
@pytest.mark.parametrize("engine", ["generator", "compiled"])
@pytest.mark.parametrize(
    "index, rounds", [(0, 20), (1, 150), (2, 17)], ids=["s0", "s1", "s2"])
def test_max_rounds_is_exact_at_the_public_entry(index, rounds, engine, mode):
    """A run needs one silent round past its last send to see every
    player finish, so ``max_rounds`` at the rounds ``R`` or below
    raises :class:`SimulationError` on both engines, and ``R + 1``
    runs.  A compiled run raises whether its clock is made for it
    (cold), shared (warm, after a run with room) or stepped on a live
    tracer (traced): the count plane's ``CostModelError`` does not leak
    out, and its message names the nodes still running, as a cold
    untraced run's does."""
    spec = generate_scenarios(777, 3)[index]
    query, topology, assignment = _faq_inputs(spec)

    def run(limit, traced=mode == "traced"):
        return run_distributed_faq(
            query, topology, assignment, engine=engine, max_rounds=limit,
            tracer=RecordingTracer() if traced else None)

    def overruns(traced=mode == "traced"):
        messages = []
        for limit in (rounds - 5, rounds - 1, rounds):
            with pytest.raises(
                    SimulationError, match=f"max_rounds={limit}\\b") as caught:
                run(limit, traced)
            messages.append(str(caught.value))
        return messages

    clear_all_memos()
    cold = overruns(traced=False)
    if mode == "warm":
        assert run(rounds + 1).rounds == rounds
    assert overruns() == cold
    assert run(rounds + 1).rounds == rounds


@pytest.mark.parametrize("n, skipped", [(96, 8), (500, 219)])
def test_compiled_runs_report_every_skippable_round(n, skipped):
    """A compiled run's jump counters are its clock's skips: on the
    ``wide-expander`` shape they cover the 8 and 219 rounds a stepping
    count-plane run shows to be skippable
    (``tests/test_costmodel.py::test_only_changing_streams_step``),
    whether the clock is made for the run or shared with an earlier
    one."""
    spec = ENGINE_CASES["wide-expander-N96"].with_(n=n)
    query, topology, assignment = _faq_inputs(spec)
    clear_all_memos()
    for _clock in ("made", "shared"):
        before = COUNTERS.snapshot()
        run_distributed_faq(query, topology, assignment, engine="compiled")
        delta = counter_delta(before, COUNTERS.snapshot())
        assert delta["engine.fast_forward_rounds"] == skipped
        assert 1 <= delta["engine.fast_forward"] <= skipped


def test_the_count_plane_runs_once_per_skeleton():
    """A compiled run and the pricing of its plan share one count-plane
    run: after one compiled ``execute_scenario``, a second run of the
    same spec and its ``predicted_metrics`` step no stream, and the
    second run's deterministic observability block — its jump counters
    included — equals the first's.  ``clear_all_memos`` makes the clock
    cold again."""
    spec = generate_scenarios(777, 3)[1].with_(engine="compiled")
    clear_all_memos()
    first = execute_scenario(spec)
    assert first.observability["engine.fast_forward_rounds"] > 0
    before = COUNTERS.snapshot()
    second = execute_scenario(spec)
    planner, plan = plan_scenario(spec)
    predicted_metrics(spec, plan, planner.topology.nodes)
    delta = counter_delta(before, COUNTERS.snapshot())
    assert delta.get("costmodel.stream_steps", 0) == 0
    assert second.observability == first.observability
    assert second.cost_model == first.cost_model
    clear_all_memos()
    before = COUNTERS.snapshot()
    assert execute_scenario(spec).observability == first.observability
    assert counter_delta(before, COUNTERS.snapshot())["costmodel.stream_steps"]


def test_a_traced_compiled_run_fills_the_shared_clock():
    """With a live tracer a compiled run steps its count-plane run on
    the tracer, and that run is the shared one: a cold traced run of a
    scenario, priced as ``record_scenario_trace`` prices it, steps as
    many streams as a cold untraced ``execute_scenario`` (the pricing
    does not time the skeleton a second time)."""
    spec = generate_scenarios(777, 3)[1].with_(engine="compiled")
    steps = []
    for run in (record_scenario_trace, execute_scenario):
        clear_all_memos()
        before = COUNTERS.snapshot()
        run(spec)
        delta = counter_delta(before, COUNTERS.snapshot())
        steps.append(delta["costmodel.stream_steps"])
    assert steps == [148, 148]


def test_overlapping_stars_are_jumped_through():
    """The ledger's ``wide-expander`` shape at N=200: two stars, the
    second's scatter reaching nodes still busy in the first, so its
    blocks buffer for them while both stream steadily.  The count plane
    jumps through the overlap and equals stepping it, and a compiled run
    counts the jumped rounds."""
    spec = ScenarioSpec(
        family="overlap", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=200,
        domain_size=64, semiring="counting", seed=3,
    )
    query, topology, assignment = _faq_inputs(spec)
    clear_all_memos()
    before = COUNTERS.snapshot()
    compiled = run_distributed_faq(
        query, topology, assignment, engine="compiled")
    delta = counter_delta(before, COUNTERS.snapshot())
    assert len(compiled.plan.stars) == 2
    fast = _run_plan(spec, True)
    _assert_same_result(fast, _run_plan(spec, False))
    assert compiled.rounds == fast.rounds == 139
    assert fast.rounds - delta["engine.fast_forward_rounds"] <= 90


def _assert_same_charge(reference, result):
    """Every accounting figure equal, per-edge maps *including key order*
    (the first-seen send order both clocks insert in)."""
    assert result.rounds == reference.rounds
    assert result.total_bits == reference.total_bits
    assert list(result.bits_per_edge.items()) == list(
        reference.bits_per_edge.items())
    assert result.max_edge_bits_per_round == reference.max_edge_bits_per_round


def test_wide_rounds_and_jumps_charge_like_the_generator_engine():
    """Rounds of 8+ sends and jumps on a small acyclic counting query
    over a 16-node expander: a traced compiled run shows them, and it,
    the count plane stepping every round and the generator engine
    charge alike."""
    spec = ScenarioSpec(
        family="one-path", query="acyclic",
        query_params={"edges": 4, "arity": 3}, topology="expander",
        topology_params={"n": 16, "degree": 4, "seed": 1}, n=128,
        domain_size=16, semiring="counting", seed=7,
    )
    query, topology, assignment = _faq_inputs(spec)
    tracer = RecordingTracer()
    fast = run_distributed_faq(
        query, topology, assignment, engine="compiled", tracer=tracer,
    ).simulation
    sends_by_round = {}
    for event in tracer.events:
        if isinstance(event, SendEvent):
            sends_by_round.setdefault(event.round, []).append(event)
    assert max(map(len, sends_by_round.values())) >= 8
    assert any(isinstance(event, CycleFastForwardEvent)
               for event in tracer.events)
    gen = run_distributed_faq(
        query, topology, assignment, engine="generator").simulation
    _assert_same_charge(gen, fast)
    _assert_same_charge(gen, _run_plan(spec, False))


# ---------------------------------------------------------------------------
# The engine's whole result, pinned
# ---------------------------------------------------------------------------

ENGINE_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "engine_results.json"
)

#: ``name -> spec``: forty fuzz scenarios on the compiled engine, and the
#: ledger's ``wide-expander`` shape (two overlapping stars on the 64-node
#: expander) at a small N.
ENGINE_CASES = {
    **{
        f"fuzz777-{i:02d}": spec.with_(engine="compiled")
        for i, spec in enumerate(generate_scenarios(777, 40))
    },
    "wide-expander-N96": ScenarioSpec(
        family="wide", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=96,
        domain_size=64, semiring="counting", engine="compiled", seed=3,
    ),
}


def _ordered_digest(*maps):
    """sha256 over dicts as *ordered* item lists: key order counts."""
    items = [[[list(key), value] for key, value in m.items()] for m in maps]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _undirected(bits_per_edge):
    """Bits per undirected edge (sorted pair), each edge entering when
    either direction is first charged — the second map the engines
    recorded when the golden was written, so its digest still holds."""
    edges = {}
    for (src, dst), bits in bits_per_edge.items():
        key = (dst, src) if dst < src else (src, dst)
        edges[key] = edges.get(key, 0) + bits
    return edges


def _trace_digest(events):
    """sha256 over a run's trace events in emission order, leaving out
    ``PhaseTimerEvent`` (it carries wall-clock seconds)."""
    payload = [
        event_to_json_dict(event) for event in events
        if not isinstance(event, PhaseTimerEvent)
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def engine_golden_record(name):
    """What ``engine_results.json`` holds for one case (also its
    generator): the compiled run's accounting, its jump counters, the
    per-edge maps in insertion order and a digest of its trace."""
    spec = ENGINE_CASES[name]
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology) or assign_round_robin(
        built.query, topology
    )
    tracer = RecordingTracer()
    before = COUNTERS.snapshot()
    sim = run_distributed_faq(
        built.query, topology, assignment, engine="compiled", tracer=tracer,
    ).simulation
    delta = counter_delta(before, COUNTERS.snapshot())
    return {
        "label": spec.label,
        "rounds": sim.rounds,
        "total_bits": sim.total_bits,
        "max_edge_bits_per_round": sim.max_edge_bits_per_round,
        "fast_forward": delta.get("engine.fast_forward", 0),
        "fast_forward_rounds": delta.get("engine.fast_forward_rounds", 0),
        "edge_maps_sha256": _ordered_digest(
            _undirected(sim.bits_per_edge), sim.bits_per_edge),
        "trace_sha256": _trace_digest(tracer.events),
    }


@pytest.fixture(scope="module")
def engine_golden():
    with open(ENGINE_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_engine_golden_covers_every_case(engine_golden):
    assert sorted(engine_golden) == sorted(ENGINE_CASES)
    assert any(r["fast_forward"] for r in engine_golden.values())


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_result_matches_golden(name, engine_golden):
    """Rounds, bits, busiest link, jumps, the per-edge maps *in key
    order* and the trace, as the compiled engine's own round loop
    produced them before the count plane became its clock
    (regenerate: ``tests/golden/README.md``)."""
    assert engine_golden_record(name) == engine_golden[name]


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_fast_forward_is_accounting_neutral_on_engine_cases(name):
    """The same on every pinned case: forty fuzz scenarios and the
    ledger's ``wide-expander`` shape."""
    spec = ENGINE_CASES[name]
    _assert_same_result(_run_plan(spec, True), _run_plan(spec, False))


