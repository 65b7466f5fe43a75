"""Two-plane engine tests: compiled RoundPrograms vs the generator engine.

The parity contract is exact, not approximate: for every scenario, the
compiled engine must produce byte-identical answers AND identical round
counts, total bits, per-(directed-)edge bits and busiest-link loads.
The headline test sweeps every Table 1 suite — the
acceptance gate of the two-plane refactor.
"""

import dataclasses
import hashlib
import json
import os
from collections import deque

import pytest

from repro.core.planner import Planner, assign_round_robin
from repro.lab.generate import generate_scenarios
from repro.lab.results import answer_digest
from repro.lab.spec import ScenarioSpec
from repro.lab.suites import get_suite
from repro.network import Topology
from repro.network import program as program_module
from repro.network.program import (
    BlockMessage,
    BroadcastOp,
    ComputeStep,
    ConvergecastOp,
    NodeProgram,
    ParallelOps,
    ProgramContext,
    ProgramOp,
    RouteOp,
    run_program,
)
from repro.network.simulator import (
    CapacityExceeded,
    SimulationError,
    Simulator,
)
from repro.obs.counters import COUNTERS, counter_delta, deterministic_view
from repro.obs.trace import (
    CycleFastForwardEvent,
    PhaseTimerEvent,
    RecordingTracer,
    SendEvent,
    event_to_json_dict,
)
from repro.pipeline import build_assignment, build_query, build_topology
from repro.protocols import (
    compile_plan,
    compile_round_programs,
    run_distributed_faq,
    validate_engine,
)
from repro.protocols.faq_protocol import _make_player
from repro.protocols.primitives import (
    Mailbox,
    broadcast_node,
    convergecast_node,
    parallel_subphases,
)

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
    than the link straddle rounds through the RouteOp bit queue)."""
    spec = ScenarioSpec(
        family="relay", query="tree", query_params={"edges": 5},
        topology="barbell", topology_params={"clique_size": 3, "path_len": 1},
        n=48, domain_size=24, semiring="counting", seed=DEFAULT_SEED,
    )
    gen, comp = _run_both(spec)
    _assert_parity(gen, comp, spec.label)


def _assert_same_result(fast, slow):
    """Every field equal — outputs included — and the per-edge map and
    the outputs in the same key order."""
    assert fast == slow
    assert list(fast.bits_per_edge.items()) == list(slow.bits_per_edge.items())
    assert list(fast.outputs) == list(slow.outputs)


def _run_plan(spec, fast_forward):
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology) or assign_round_robin(
        built.query, topology
    )
    plan = compile_plan(built.query, topology, assignment)
    return run_program(
        topology, plan.capacity_bits,
        compile_round_programs(plan, built.query, topology),
        fast_forward=fast_forward,
    )


def test_fast_forward_is_accounting_neutral():
    """Dormant nodes and skipped rounds change wall-clock only: stepping
    every node every round must give byte-identical results."""
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
# Engine internals
# ---------------------------------------------------------------------------


def _released_convergecast(tag, parent, children, per_slot, num_slots):
    """A combine whose scatter has landed all ``num_slots`` tuples (a
    stand-in run by no program), so the gate releases every slot; its
    counts are those its first step sets."""
    scatter = BroadcastOp("landed", "ghost", [], per_item=1)
    scatter._learn(num_slots)
    scatter.received = scatter.total
    op = ConvergecastOp(tag, parent, children, per_slot, scatter, [scatter])
    op.num_slots = op.released = num_slots
    return op


def test_compiled_deadlock_names_blocked_nodes():
    """A convergecast waiting on a silent child deadlocks immediately,
    and the error names the node, its program step and pending tags."""
    topology = Topology.line(2)
    op = _released_convergecast("stuck", None, [topology.nodes[1]], 1, 4)
    programs = {
        topology.nodes[0]: NodeProgram(topology.nodes[0], [op]),
    }
    with pytest.raises(SimulationError) as err:
        run_program(topology, 8, programs, max_rounds=100)
    assert topology.nodes[0] in err.value.blocked
    assert "convergecast:stuck" in str(err.value)


def _line_programs(case):
    """Programs on ``line(3)`` that stop the engine: a 500-item broadcast
    cut by ``max_rounds`` while its nodes stream steadily, or a
    convergecast whose child first takes a broadcast and then waits on
    one nobody sends, so the run deadlocks after its nodes fell silent."""
    topology = Topology.line(3)
    root, mid, leaf = topology.nodes
    if case == "max_rounds":
        return topology, {
            root: NodeProgram(root, [BroadcastOp(
                "bc", None, [mid], per_item=8, root_count_fn=lambda: 500)]),
            mid: NodeProgram(mid, [BroadcastOp("bc", root, [leaf], per_item=8)]),
            leaf: NodeProgram(leaf, [BroadcastOp("bc", mid, [], per_item=8)]),
        }
    top = _released_convergecast("cc", None, [mid], 4, 3)
    child = _released_convergecast("cc", root, [], 4, 3)
    return topology, {
        root: NodeProgram(root, [BroadcastOp(
            "x", None, [mid], per_item=8, root_count_fn=lambda: 40), top]),
        mid: NodeProgram(mid, [
            BroadcastOp("x", root, [], per_item=8),
            BroadcastOp("never", leaf, [], per_item=8),
            child,
        ]),
    }


@pytest.mark.parametrize("case", ["max_rounds", "deadlock"])
def test_errors_do_not_depend_on_dormancy(case):
    """Dormant nodes are caught up before they are described: the error
    — its round and its blocked map — is the same as when every node
    steps every round."""
    errors = []
    for fast_forward in (True, False):
        topology, programs = _line_programs(case)
        with pytest.raises(SimulationError) as err:
            run_program(topology, 8, programs, max_rounds=200,
                        fast_forward=fast_forward)
        errors.append((str(err.value), err.value.blocked))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith(
        "exceeded max_rounds=200" if case == "max_rounds"
        else "deadlock at round 46")


def test_program_output_via_compute_step():
    topology = Topology.line(2)
    programs = {
        topology.nodes[0]: NodeProgram(
            topology.nodes[0],
            [ComputeStep(lambda ctx: "done", is_output=True)],
        )
    }
    result = run_program(topology, 4, programs)
    assert result.output_of(topology.nodes[0]) == "done"
    assert result.rounds == 0
    assert result.total_bits == 0


def test_run_program_entry_point():
    spec = ScenarioSpec(
        family="entry", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=32,
        assignment="worst-case", seed=DEFAULT_SEED,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology)
    plan = compile_plan(built.query, topology, assignment)
    result = run_program(
        topology, plan.capacity_bits,
        compile_round_programs(plan, built.query, topology),
    )
    gen = Simulator(topology, plan.capacity_bits).run(
        {n: _make_player(plan, built.query, n) for n in topology.nodes}
    )
    assert result.rounds == gen.rounds
    assert result.total_bits == gen.total_bits


def test_align_join_columns_huge_int_domains_fall_back():
    """Domain values beyond int64 must take the generic merge path, not
    crash the vectorized scorer (review regression)."""
    import numpy as np

    from repro.protocols.compiler import _align_join_columns

    wire_dict = [2 ** 63, 2 ** 63 + 1]
    factor_dict = [2 ** 63, 2 ** 63 + 2]
    wire_codes = np.array([0, 1, 0], dtype=np.int64)
    factor_codes = np.array([1, 0], dtype=np.int64)
    wire_col, factor_col, card = _align_join_columns(
        wire_dict, wire_codes, factor_dict, factor_codes
    )
    # Codes comparing equal must mean equal domain values.
    merged = {0: 2 ** 63, 1: 2 ** 63 + 1, 2: 2 ** 63 + 2}
    assert [merged[c] for c in wire_col.tolist()] == [
        wire_dict[c] for c in wire_codes.tolist()
    ]
    assert [merged[c] for c in factor_col.tolist()] == [
        factor_dict[c] for c in factor_codes.tolist()
    ]
    assert card == 3


def test_vector_scores_do_not_depend_on_dictionary_identity(monkeypatch):
    """Each contribution's dictionaries are temporaries of the scoring
    loop, so CPython may hand a freed one's ``id`` to the next — here
    forced: every object answers the same ``id``.  Two contributions
    whose ``x`` dictionaries differ in length and in values must still
    score like the dict plane (an ``id``-keyed array memo indexed the
    second one's codes into the first one's array)."""
    from repro.protocols import compiler
    from repro.protocols.faq_protocol import score_rows
    from repro.semiring import COUNTING, Factor
    from repro.semiring.columnar import WireBlock

    monkeypatch.setattr(compiler, "id", lambda obj: 0, raising=False)
    schema = ("x", "y")
    rows = [(x, y) for x in range(8) for y in (0, 1)]
    wire = WireBlock.encode_rows(schema, rows)
    contributions = [
        Factor(("x",), {(x,): 2 + x for x in (0, 4, 5, 6, 7)}, COUNTING),
        Factor(("x", "y"), {(x, 1): 3 + x for x in (0, 3, 4, 5, 6, 7)},
               COUNTING),
    ]
    scores = compiler._vector_scores(COUNTING, schema, contributions, wire)
    assert scores.tolist() == score_rows(COUNTING, schema, contributions, rows)
    assert any(scores.tolist())


def test_fast_forward_with_passive_receiver_does_not_crash():
    """A steady stream toward a program-less (passive) node is dropped on
    delivery in both engines; the cycle fast-forward must tolerate it
    (review regression)."""
    topology = Topology.line(2)
    op = BroadcastOp(
        "drop", None, [topology.nodes[1]], per_item=2,
        root_count_fn=lambda: 500,
    )
    programs = {topology.nodes[0]: NodeProgram(topology.nodes[0], [op])}
    result = run_program(topology, 8, programs, max_rounds=10_000)
    slow = run_program(
        topology, 8,
        {topology.nodes[0]: NodeProgram(
            topology.nodes[0],
            [BroadcastOp("drop", None, [topology.nodes[1]], per_item=2,
                         root_count_fn=lambda: 500)],
        )},
        max_rounds=10_000, fast_forward=False,
    )
    assert result.rounds == slow.rounds
    assert result.total_bits == slow.total_bits == 32 + 500 * 2


# ---------------------------------------------------------------------------
# Jumping through overlapping phases
# ---------------------------------------------------------------------------


def _fast_and_slow(topology, capacity, build_programs):
    """One run jumping, one stepping every round, and the first run's
    engine counter deltas."""
    before = COUNTERS.snapshot()
    fast = run_program(topology, capacity, build_programs())
    delta = counter_delta(before, COUNTERS.snapshot())
    slow = run_program(topology, capacity, build_programs(), fast_forward=False)
    return fast, slow, delta


def test_overlapping_stars_are_jumped_through():
    """The ledger's ``wide-expander`` shape at N=200: two stars, the
    second's scatter reaching nodes still busy in the first, so its
    blocks buffer in their mailboxes while both stream steadily.  The
    jump materializes them."""
    spec = ScenarioSpec(
        family="overlap", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=200,
        domain_size=64, semiring="counting", seed=3,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    plan = compile_plan(
        built.query, topology, assign_round_robin(built.query, topology)
    )
    assert len(plan.stars) == 2
    fast, slow, delta = _fast_and_slow(
        topology, plan.capacity_bits,
        lambda: compile_round_programs(plan, built.query, topology),
    )
    assert fast == slow  # every field, outputs included
    assert fast.rounds == 139
    assert fast.rounds - delta["engine.fast_forward_rounds"] <= 90


def test_buffered_route_chunks_materialize_in_stepped_order():
    """An origin routes 9-bit items over 8-bit links into a relay still
    receiving a broadcast, so its frames buffer.  The jump must queue
    what the skipped rounds would have, starting with the stepped
    round's own sends; the relay's route starts from that backlog.  A
    compute step snapshots the backlog's bits as the relay's output."""
    topology = Topology.line(3)
    sink, relay, origin = topology.nodes

    def backlog(ctx):
        return sum(
            blk.bits for blk in ctx.queues.get(("final", origin), ())
            if blk.kind == "bits"
        )

    def build_programs():
        return {
            sink: NodeProgram(sink, [
                BroadcastOp("bc", None, [relay], per_item=8,
                            root_count_fn=lambda: 300),
                RouteOp("final", None, [relay]),
            ]),
            relay: NodeProgram(relay, [
                BroadcastOp("bc", sink, [], per_item=8),
                ComputeStep(backlog, is_output=True),
                RouteOp("final", sink, [origin]),
            ]),
            origin: NodeProgram(origin, [
                RouteOp("final", relay, [], payload_bits_fn=lambda: 9 * 200),
            ]),
        }

    fast, slow, delta = _fast_and_slow(topology, 8, build_programs)
    assert fast == slow
    assert fast.rounds == 530
    # The origin's whole stream lands while the relay is still in its
    # broadcast (305 rounds), and the relay then drains it at 8 bits a
    # round: both stretches are jumped.
    assert slow.output_of(relay) == 9 * 200
    assert delta["engine.fast_forward_rounds"] >= 500


# ---------------------------------------------------------------------------
# Horizons in bits
# ---------------------------------------------------------------------------


def _convergecast_up_a_line(topology, per_slot, num_slots):
    """Compiled programs and generator processes of one convergecast up
    ``topology`` (a line) toward its first node, every node adding 1 to
    every slot."""
    nodes = list(topology.nodes)

    def roles(i):
        parent = nodes[i - 1] if i else None
        return parent, nodes[i + 1:i + 2]

    def build_programs():
        programs = {}
        for i, node in enumerate(nodes):
            op = _released_convergecast("cc", *roles(i), per_slot, num_slots)
            programs[node] = NodeProgram(node, [op])
        return programs

    def process(i):
        def proc(ctx):
            mail = Mailbox()
            return (yield from convergecast_node(
                ctx, mail, *roles(i), num_slots, [1] * num_slots,
                lambda a, b: a + b, 0, per_slot, "cc"))
        return proc

    return build_programs, {node: process(i) for i, node in enumerate(nodes)}


@pytest.mark.parametrize("length", [2, 3])
def test_convergecast_jumps_exactly_when_slots_straddle_rounds(length):
    """32-bit slots over 36-bit links: the leaf sends 36 bits a round, so
    the slots readied above it grow by 1, 1, ..., then 2 (every 8
    rounds).  The root is drained — it moves exactly the slots that
    became ready — and may only jump while a child that delivers whole
    slots at the pace they move holds the minimum: here none does.  A
    relay (length 3) turns room-limited and jumps on the floor's lower
    envelope.  Jumping must equal stepping and the generator."""
    topology = Topology.line(length)
    build_programs, processes = _convergecast_up_a_line(topology, 32, 200)
    fast, slow, _sends, jumps = _traced_fast_and_slow(
        topology, 36, build_programs)
    gen = Simulator(topology, 36).run(processes)
    assert gen.output_of(topology.nodes[0]) == [length] * 200
    assert gen.total_bits == (length - 1) * 200 * 32
    _assert_same_charge(gen, fast)
    _assert_same_charge(gen, slow)
    assert jumps >= 1


@pytest.mark.parametrize("held_back", [False, True])
def test_a_combine_held_back_by_a_threshold_does_not_settle(
        held_back, monkeypatch):
    """A threshold on the gate (a patch of ``_released`` reading the
    node's other scatters, as the sequential schedule's does) may lift
    in any round one of them steps, so a combine it holds back declines
    to settle; the same repeating combine under the gate alone settles."""
    if held_back:
        monkeypatch.setattr(program_module, "_released",
                            lambda scatter, scatters: 0)
    topology = Topology.line(2)
    parent, node = topology.nodes
    op = _released_convergecast("cc", parent, [], 4, 10)
    ctx = ProgramContext(node, topology, 4)
    for round_no in (1, 2):
        ctx._begin_round(round_no)
        op.step(ctx)
    assert op._hist[0] == op._hist[1]
    assert op.sent == (0 if held_back else 8)
    assert (op.cycle_horizon() >= 1) != held_back


def test_convergecast_horizon_reads_each_childs_readied_bits():
    """A room-limited relay stays so while every child's readied bits
    run ahead of those sent.  A child delivering whole 16-bit slots a
    round counts its floored bits exactly; one delivering 24 bits a
    round, whose floor moves irregularly, counts its periodic envelope:
    its remainder mod 16 steps by ``gcd(24, 16) = 8``, so the floor cuts
    off at most ``8 + received % 8``.  A negative distance may already
    bite: decline."""
    op = _released_convergecast("cc", "parent", ["whole", "ragged"], 16, 1000)
    op.received, op.sent = [16 * 20 + 5, 340], 312
    op.ready = min(op.received) // 16
    op._hist.extend([((16, 24), 20)] * 2)
    # whole: 320 - 312 = 8, losing 4 a round; ragged: 340 - 15 - 312 = 13,
    # gaining 4 a round; the end of the stream is far.
    assert op.cycle_horizon() == 8 // 4
    op._hist.extend([((16, 16), 20)] * 2)
    # ragged now delivers whole slots too: 336 - 312 = 24, losing 4.
    assert op.cycle_horizon() == min(8 // 4, 24 // 4)
    # ragged at 326 bits: the floor cuts off at most 8 + 6, so its
    # envelope is 326 - 14 - 312 = 0, gaining 4 a round; whole bounds it.
    op.received[1] = 326
    op._hist.extend([((16, 24), 20)] * 2)
    assert op.cycle_horizon() == 8 // 4
    # ragged at 318 bits: its floor (304) is already behind.
    op.received[1] = 318
    assert op.cycle_horizon() == 0


def test_broadcast_horizon_stops_before_a_draining_backlog_runs_out():
    """A relay whose child gets the link's full 32 bits a round while
    only 20 arrive drains its backlog by 12 a round: the send stays
    room-limited for ``backlog // 12`` more rounds, and no longer."""
    op = BroadcastOp("bc", "parent", ["child"], per_item=8)
    op._learn(1000)
    op.received, op.sent = 500, [200]
    op._hist.extend([(20, (32,))] * 2)
    assert op.cycle_horizon() == 300 // 12
    op._hist.extend([(32, (32,))] * 2)  # keeping pace: the end bounds it
    assert op.cycle_horizon() == (op.total - 200 - 1) // 32
    op.advance(5)
    assert (op.received, op.sent) == (500 + 5 * 32, [200 + 5 * 32])


def test_broadcast_horizon_stops_before_the_header_completes():
    """The frame that completes a broadcast's 32-bit count header
    carries the count in ``meta``, so it repeats nothing: a root 24 bits
    into its header at 12 bits a round may not settle, however long its
    stream.  (A child that does not know the count yet declines too, but
    a node settles on its own horizon alone.)"""
    topology = Topology.line(2)
    root, child = topology.nodes
    op = BroadcastOp("bc", None, [child], per_item=8,
                     root_count_fn=lambda: 100)
    ctx = ProgramContext(root, topology, 12)
    op.start(ctx)
    for round_no in (1, 2):
        ctx._begin_round(round_no)
        op.step(ctx)
    assert op.sent == [24]
    assert [blk.meta for blk in ctx._outbox] == [None, None]
    assert op.cycle_horizon() == 0
    ctx._begin_round(3)
    op.step(ctx)
    assert ctx._outbox[-1].meta == 100


# ---------------------------------------------------------------------------
# One way to charge a round
# ---------------------------------------------------------------------------


def _assert_same_charge(reference, result):
    """Every accounting figure equal, per-edge maps *including key order*
    (the first-seen send order both engines insert in)."""
    assert result.rounds == reference.rounds
    assert result.total_bits == reference.total_bits
    assert list(result.bits_per_edge.items()) == list(
        reference.bits_per_edge.items())
    assert result.max_edge_bits_per_round == reference.max_edge_bits_per_round


def _traced_fast_and_slow(topology, capacity, build_programs):
    """A jumping run with its recorded send events and jump count, and a
    run stepping every round."""
    tracer = RecordingTracer()
    fast = run_program(topology, capacity, build_programs(), tracer=tracer)
    slow = run_program(topology, capacity, build_programs(), fast_forward=False)
    sends_by_round = {}
    for event in tracer.events:
        if isinstance(event, SendEvent):
            sends_by_round.setdefault(event.round, []).append(
                (event.src, event.dst))
    jumps = sum(
        isinstance(event, CycleFastForwardEvent) for event in tracer.events)
    return fast, slow, sends_by_round, jumps


def test_wide_rounds_and_jumps_charge_like_the_generator_engine():
    """Rounds of 8+ blocks and jumps — what the array ledger used to
    serve — on a small acyclic counting query over a 16-node expander."""
    spec = ScenarioSpec(
        family="one-path", query="acyclic",
        query_params={"edges": 4, "arity": 3}, topology="expander",
        topology_params={"n": 16, "degree": 4, "seed": 1}, n=128,
        domain_size=16, semiring="counting", seed=7,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = assign_round_robin(built.query, topology)
    plan = compile_plan(built.query, topology, assignment)
    fast, slow, sends_by_round, jumps = _traced_fast_and_slow(
        topology, plan.capacity_bits,
        lambda: compile_round_programs(plan, built.query, topology),
    )
    assert max(map(len, sends_by_round.values())) >= 8
    assert jumps >= 1
    gen = run_distributed_faq(
        built.query, topology, assignment, engine="generator").simulation
    _assert_same_charge(gen, fast)
    _assert_same_charge(gen, slow)


def test_both_directions_of_an_edge_in_one_wide_round():
    """No FAQ protocol run puts both directions of an edge into one round
    (phases flow one way at a time), so this one is built by hand: a hub
    of the expander streams to its four neighbours while each of them
    streams back — 8 blocks a round, every edge loaded both ways, long
    enough to jump — against the generator primitives doing the same."""
    topology = Topology.expander(n=16, degree=4, seed=1)
    hub = topology.nodes[0]
    leaves = sorted(topology.neighbors(hub))
    assert len(leaves) == 4
    counts = {"down": 120, **{f"up:{leaf}": 40 + 20 * i
                              for i, leaf in enumerate(leaves)}}

    def build_programs():
        programs = {hub: NodeProgram(hub, [ParallelOps(
            [BroadcastOp("down", None, leaves, per_item=8,
                         root_count_fn=lambda: counts["down"])]
            + [BroadcastOp(f"up:{leaf}", leaf, [], per_item=8)
               for leaf in leaves]
        )])}
        for leaf in leaves:
            programs[leaf] = NodeProgram(leaf, [ParallelOps([
                BroadcastOp("down", hub, [], per_item=8),
                BroadcastOp(f"up:{leaf}", None, [hub], per_item=8,
                            root_count_fn=lambda leaf=leaf: counts[f"up:{leaf}"]),
            ])])
        return programs

    def hub_process(ctx):
        mail = Mailbox()
        yield from parallel_subphases(
            [broadcast_node(ctx, mail, None, leaves,
                            list(range(counts["down"])), 8, "down")]
            + [broadcast_node(ctx, mail, leaf, [], None, 8, f"up:{leaf}")
               for leaf in leaves]
        )

    def leaf_process(leaf):
        def process(ctx):
            mail = Mailbox()
            yield from parallel_subphases([
                broadcast_node(ctx, mail, hub, [], None, 8, "down"),
                broadcast_node(ctx, mail, None, [hub],
                               list(range(counts[f"up:{leaf}"])), 8,
                               f"up:{leaf}"),
            ])
        return process

    fast, slow, sends_by_round, jumps = _traced_fast_and_slow(
        topology, 8, build_programs)
    assert any(
        len(sends) >= 8 and any((dst, src) in sends for src, dst in sends)
        for sends in sends_by_round.values()
    )
    assert jumps >= 1
    gen = Simulator(topology, 8).run(
        {hub: hub_process, **{leaf: leaf_process(leaf) for leaf in leaves}})
    streams = [counts["down"]] * 4 + [counts[f"up:{leaf}"] for leaf in leaves]
    assert gen.total_bits == sum(32 + 8 * count for count in streams)
    _assert_same_charge(gen, fast)
    _assert_same_charge(gen, slow)


def test_every_round_is_audited_against_the_capacity():
    """The per-link audit is not reserved for wide rounds: one block too
    many dies in a two-block round, whether ``send_block`` refuses it or
    an op slips it past the per-send guard."""
    topology = Topology.line(2)
    src, dst = topology.nodes

    class Overfill(ProgramOp):
        def __init__(self, bypass):
            self.bypass = bypass

        def step(self, ctx):
            ctx.send_block(dst, "x", "it", 6)
            if self.bypass:
                ctx._outbox.append(
                    BlockMessage(src, dst, "x", "it", 6))
            else:
                ctx.send_block(dst, "x", "it", 6)
            return True

    for bypass in (False, True):
        with pytest.raises(CapacityExceeded, match=f"{src}->{dst}.*12 bits"):
            run_program(
                topology, 8, {src: NodeProgram(src, [Overfill(bypass)])})


def test_send_block_checks_the_senders_own_neighbours():
    topology = Topology.line(3)
    ctx = ProgramContext("P0", topology, 8)
    ctx.send_block("P1", "x", "it", 4)
    for dst in ("P2", "P9", "P0"):
        with pytest.raises(ValueError, match=f"P0 -> {dst}: not an edge of G"):
            ctx.send_block(dst, "x", "it", 4)
    stranger = ProgramContext("P9", topology, 8)
    with pytest.raises(ValueError, match="P9 -> P0: not an edge of G"):
        stranger.send_block("P0", "x", "it", 4)


def test_a_streams_blocks_queue_up_in_arrival_order():
    """One queue per (tag, sender), made on the first delivery and
    appended to after: a receiver that reads late sees every block."""
    topology = Topology.star(2)
    hub, *leaves = topology.nodes

    class Send(ProgramOp):
        left = 3

        def step(self, ctx):
            ctx.send_block(hub, "x", "it", 4, meta=(ctx.node, self.left))
            self.left -= 1
            return self.left == 0

    class ReadLate(ProgramOp):
        got = None

        def step(self, ctx):
            if ctx.round < 4:
                return False
            self.got = {
                leaf: [blk.meta for blk in ctx.inbox(("x", leaf))]
                for leaf in leaves
            }
            return True

    late = ReadLate()
    run_program(topology, 8, {
        hub: NodeProgram(hub, [late]),
        **{leaf: NodeProgram(leaf, [Send()]) for leaf in leaves},
    })
    assert late.got == {leaf: [(leaf, 3), (leaf, 2), (leaf, 1)] for leaf in leaves}


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
    """Rounds, bits, busiest link, jumps and the per-edge maps *in key
    order*, as the engine produced them before its round loop
    was last optimized (regenerate: ``tests/golden/README.md``)."""
    assert engine_golden_record(name) == engine_golden[name]


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_fast_forward_is_accounting_neutral_on_engine_cases(name):
    """The same on every pinned case: forty fuzz scenarios and the
    ledger's ``wide-expander`` shape."""
    spec = ENGINE_CASES[name]
    _assert_same_result(_run_plan(spec, True), _run_plan(spec, False))


def _stream_steps(spec, monkeypatch, fast_forward=True):
    """A run of ``spec``'s plan and the round of every stream step in
    it, with the rounds in which a stream changed its last round or
    finished."""
    steps, changing = [], set()
    with monkeypatch.context() as patch:
        for cls in (BroadcastOp, ConvergecastOp, RouteOp):
            def counted(op, ctx, _step=cls.step):
                finished = _step(op, ctx)
                steps.append(ctx.round)
                if finished or op._hist[0] != op._hist[1]:
                    changing.add(ctx.round)
                return finished
            patch.setattr(cls, "step", counted)
        result = _run_plan(spec, fast_forward)
    return result, steps, changing


@pytest.mark.parametrize("n, rounds, most", [(96, 78, 910), (500, 314, 913)])
def test_only_changing_streams_step(n, rounds, most, monkeypatch):
    """The stream steps of the ``wide-expander`` shape (64 nodes),
    pinned: a stream steps only while it changes, or while a stream it
    reads does.  When a node stepped every member of its star's group
    while any of them changed, this took 1,607 and 1,640 (655 and 665
    node-steps); today 907 and 911, and the count plane takes 913 at
    N=500."""
    spec = ENGINE_CASES["wide-expander-N96"].with_(n=n)
    result, steps, _changing = _stream_steps(spec, monkeypatch)
    assert result.rounds == rounds
    assert len(steps) <= most


@pytest.mark.parametrize("n, skipped", [(96, 8), (500, 219)])
def test_the_engine_skips_every_skippable_round(n, skipped, monkeypatch):
    """Every round a stepping run shows to be skippable — no stream
    changed its last round or finished in it or the round before, the
    first of which its streams settle in — is skipped, and no other:
    the count plane skips the same 8 and 219
    (``tests/test_costmodel.py::test_only_changing_streams_step``)."""
    spec = ENGINE_CASES["wide-expander-N96"].with_(n=n)
    stepping, steps, changing = _stream_steps(spec, monkeypatch, False)
    assert len(set(steps)) == stepping.rounds + 1  # a silent last round
    skippable = sum(
        t not in changing and t - 1 not in changing and t > 1
        for t in range(1, stepping.rounds + 1)
    )
    before = COUNTERS.snapshot()
    _assert_same_result(_run_plan(spec, True), stepping)
    delta = counter_delta(before, COUNTERS.snapshot())
    assert delta["engine.fast_forward_rounds"] == skippable == skipped


def _star(node, parent, trees, count=None, per_item=8, per_slot=16):
    """A hand-built star's group at ``node``: a scatter and a combine
    for each ``(j, children)`` of ``trees``, counts at the root."""
    scatters = [
        BroadcastOp(f"bc{j}", parent, children, per_item,
                    root_count_fn=None if count is None
                    else (lambda j=j: count[j]))
        for j, children in trees
    ]
    combines = [
        ConvergecastOp(f"cc{j}", parent, children, per_slot, gate, scatters)
        for (j, children), gate in zip(trees, scatters)
    ]
    return NodeProgram(node, [ParallelOps(scatters + combines)])


def test_streams_sharing_a_link_are_refused():
    """Two packing trees that share ``a -> b`` and ``b -> a`` (so not
    edge-disjoint, built by hand: no plan makes them) put the root's
    scatters on one link, and ``b``'s combines.  A sleeping stream
    would overdraw the link its mate sends on, so the group is refused
    when it starts."""
    topology = Topology.line(3)
    a, b, c = topology.nodes
    programs = {
        a: _star(a, None, [(0, [b]), (1, [b])], count=(200, 300)),
        b: _star(b, a, [(0, []), (1, [c])]),
        c: _star(c, b, [(1, [])]),
    }
    with pytest.raises(ValueError, match=f"{a} -> {b}: two streams"):
        run_program(topology, 16, programs)


def test_a_combine_sleeps_through_a_ragged_gate(monkeypatch):
    """A leaf's combine sends 8-bit slots up a 12-bit link behind a
    scatter landing 12 bits (1.5 tuples) a round: drained every other
    round and room-limited in between.  The slot floor's periodic
    envelope proves those rounds steady, so the combine sleeps through
    them: 6 steps in 140 rounds (135 and no skipped round under a linear
    envelope), and the run equals stepping every stream every round."""
    topology = Topology.line(3)
    a, b, c = topology.nodes

    def build_programs():
        return {
            a: _star(a, None, [(0, [b])], count=(200,), per_slot=8),
            b: _star(b, a, [(0, [c])], per_slot=8),
            c: _star(c, b, [(0, [])], per_slot=8),
        }

    programs = build_programs()
    leaf_combine = programs[c]._ops[0].members[1]
    steps = []
    step = ConvergecastOp.step

    def counted(op, ctx):
        if op is leaf_combine:
            steps.append(ctx.round)
        return step(op, ctx)

    monkeypatch.setattr(ConvergecastOp, "step", counted)
    before = COUNTERS.snapshot()
    dormant = run_program(topology, 12, programs)
    delta = counter_delta(before, COUNTERS.snapshot())
    _assert_same_result(dormant,
                        run_program(topology, 12, build_programs(),
                                    fast_forward=False))
    assert dormant.rounds == 140
    assert len(steps) == 6
    assert delta["engine.fast_forward_rounds"] == 125


# ---------------------------------------------------------------------------
# Horizons are side-effect free
# ---------------------------------------------------------------------------


#: A stream's links to the streams around it, which refer back to it:
#: compared by identity (their own state is checked on their own calls).
_WIRING = ("reads", "readers", "watch")


def _op_state(value):
    """A comparable deep copy of op state: ops, routing runs and blocks
    compare by identity, so they unfold into their fields."""
    if isinstance(value, (ProgramOp, BlockMessage)):
        fields = (
            dict(vars(value)) if hasattr(value, "__dict__")
            else {name: getattr(value, name) for name in value.__slots__}
        )
        for name in _WIRING:
            if name in fields:
                fields[name] = id(fields[name])
        return (type(value).__name__, _op_state(fields))
    if isinstance(value, dict):
        return {key: _op_state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__, [_op_state(item) for item in value])
    if isinstance(value, set):
        return frozenset(value)
    return value


@pytest.mark.parametrize("name", ["wide-expander", "routed"])
def test_cycle_horizon_leaves_every_op_unchanged(name, monkeypatch):
    """Which streams are asked depends on which repeat: that is only
    exact while asking changes nothing.  Every op class's
    ``cycle_horizon`` is wrapped to compare the op's whole state before
    and after the call."""
    spec = {
        "wide-expander": ENGINE_CASES["wide-expander-N96"],
        "routed": ScenarioSpec(
            family="routed", query="hard-forest",
            query_params={"edges": 4, "trees": 2}, topology="ring",
            topology_params={"n": 6}, n=64, assignment="worst-case",
            engine="compiled", seed=5,
        ),
    }[name]
    calls = {}
    for cls in (BroadcastOp, ConvergecastOp, RouteOp):
        def checked(self, _horizon=cls.cycle_horizon, _cls=cls):
            before = _op_state(vars(self))
            horizon = _horizon(self)
            assert _op_state(vars(self)) == before, type(self).__name__
            calls[_cls.__name__] = calls.get(_cls.__name__, 0) + 1
            return horizon
        monkeypatch.setattr(cls, "cycle_horizon", checked)
    built = build_query(spec)
    topology = build_topology(spec)
    assignment = build_assignment(spec, built, topology) or assign_round_robin(
        built.query, topology
    )
    run_distributed_faq(built.query, topology, assignment, engine="compiled")
    assert calls.get("BroadcastOp")
    assert calls.get("RouteOp" if name == "routed" else "ConvergecastOp")
