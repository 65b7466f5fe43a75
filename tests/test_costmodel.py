"""Tests for the symbolic cost plane (:mod:`repro.costmodel`).

Three layers:

* the expression mini-language (exact integer algebra + optional sympy
  bridge);
* the kernel closed forms, validated against the timing recurrence on
  synthetic skeletons (the two-party routing kernel in particular);
* the end-to-end oracle: predictions must equal executed measurements
  bit-for-bit on every run — including the hypothesis-driven
  property sweep over the fuzz generator and the regression pin of the
  known-loose Ω̃ hard-forest case;
* the recurrence's dormant streams and the demand-driven skeleton
  replay: pins found by differential search (dormant vs stepping every
  stream every round), the error paths while streams sleep, and the
  counter ledger.
"""

import hashlib
import json
import math
import os
from collections import deque

import pytest

from repro.core.memo import clear_all_memos
from repro.costmodel import (
    CostModelError,
    CostSkeleton,
    RouteSkeleton,
    StarSkeleton,
    add,
    ceildiv,
    const,
    edge_digest,
    evaluate,
    evaluate_timing,
    extract_skeleton,
    floordiv,
    format_kernel_table,
    have_sympy,
    max_,
    mul,
    predict_costs,
    structural_costs,
    sym,
    to_sympy,
)
from repro.costmodel.formulas import two_party_route_rounds
from repro.protocols import timing as timing_module
from repro.protocols.timing import (
    CostVector,
    _AWAKE,
    _Broadcast,
    _catch_up,
    _Convergecast,
    _Ctx,
    _DONE,
    _floor_loss,
    _Op,
    _Route,
    _WAITING,
)
from repro.decomposition.ghd import GHD
from repro.faq import FAQQuery
from repro.hypergraph import Hypergraph
from repro.lab.generate import generate_scenarios
from repro.lab.report import cost_mismatches
from repro.lab.runner import execute_scenario, record_scenario_trace
from repro.lab.spec import ScenarioSpec
from repro.lab.suites import get_suite
from repro.obs.counters import COSTMODEL_COUNTERS, COUNTERS, counter_delta
from repro.obs.trace import (
    ComputeStepEvent,
    CycleFastForwardEvent,
    RecordingTracer,
    SendEvent,
)
from repro.pipeline import plan_scenario
from repro.protocols import HEADER_BITS, compiler, run_distributed_faq
from repro.protocols import primitives as primitives_module
from repro.network.topology import Topology
from repro.semiring import BOOLEAN, Factor


# ---------------------------------------------------------------------------
# Expression layer
# ---------------------------------------------------------------------------


def test_expr_constant_folding():
    assert str(add(1, 2)) == "3"
    assert str(mul(2, 3)) == "6"
    assert str(max_(1, 5, 3)) == "5"
    assert str(ceildiv(7, 2)) == "4"
    assert str(floordiv(7, 2)) == "3"
    # Identity elements fold away.
    assert str(add(sym("x"), 0)) == "x"
    assert str(mul(sym("x"), 1)) == "x"
    assert str(mul(sym("x"), 0)) == "0"


def test_expr_evaluation_is_exact_integer_arithmetic():
    x, y = sym("x"), sym("y")
    env = {"x": 7, "y": 3}
    assert evaluate(add(x, mul(2, y)), env) == 13
    assert evaluate(ceildiv(x, y), env) == 3
    assert evaluate(floordiv(x, y), env) == 2
    assert evaluate(max_(x, y, 10), env) == 10
    # Operator sugar builds the same nodes.
    assert evaluate(x + y * 2, env) == 13


def test_expr_free_symbols_and_equality():
    e = add(sym("a"), mul(sym("b"), sym("a")))
    assert e.free_symbols() == ("a", "b")
    assert add(sym("a"), 1) == add(sym("a"), 1)
    assert add(sym("a"), 1) != add(sym("a"), 2)


def test_expr_missing_symbol_and_bad_divisor_raise():
    with pytest.raises(KeyError):
        evaluate(sym("nope"), {})
    with pytest.raises(ZeroDivisionError):
        evaluate(ceildiv(sym("x"), sym("d")), {"x": 1, "d": 0})
    with pytest.raises(ZeroDivisionError):
        evaluate(floordiv(sym("x"), sym("d")), {"x": 1, "d": 0})


def test_division_rendering_parenthesizes_compound_operands():
    rendered = str(floordiv(add(sym("a"), sym("b")), sym("c")))
    assert rendered == "floor((a + b) / c)"
    assert str(ceildiv(mul(2, sym("a")), sym("c"))) == "ceil((2*a) / c)"


@pytest.mark.skipif(not have_sympy(), reason="sympy not installed")
def test_sympy_bridge_agrees_with_pure_evaluator():
    import sympy

    x, y = sym("x"), sym("y")
    exprs = [
        add(x, mul(3, y)),
        ceildiv(add(x, y), const(4)),
        floordiv(mul(x, y), const(3)),
        max_(x, y, const(5)),
    ]
    for expr in exprs:
        converted = to_sympy(expr)
        for env in ({"x": 7, "y": 2}, {"x": 1, "y": 9}):
            subbed = converted.subs(
                {sympy.Symbol(k, integer=True, nonnegative=True): v
                 for k, v in env.items()}
            )
            assert int(subbed) == evaluate(expr, env)


# ---------------------------------------------------------------------------
# Digests and the kernel table
# ---------------------------------------------------------------------------


def test_edge_digest_is_canonical():
    a = {("p", "q"): 7, ("q", "p"): 3}
    b = {("q", "p"): 3, ("p", "q"): 7, ("p", "r"): 0}
    assert edge_digest(a) == edge_digest(b)  # order + zero links ignored
    assert edge_digest(a) != edge_digest({("p", "q"): 8, ("q", "p"): 3})


def test_kernel_table_renders_every_kernel():
    table = format_kernel_table()
    for name in (
        "scatter_tree_bits", "combine_tree_bits", "route_link_bits",
        "two_party_route_rounds", "single_placement_rounds",
    ):
        assert name in table


# ---------------------------------------------------------------------------
# Kernel closed forms vs the timing recurrence
# ---------------------------------------------------------------------------


def _route_only_skeleton(payload, tuple_bits, value_bits):
    """Two nodes, a -> b routing link, ``payload`` items at a."""
    return CostSkeleton(
        nodes=("a", "b"),
        output_player="b",
        capacity=max(tuple_bits, value_bits),
        tuple_bits=tuple_bits,
        value_bits=value_bits,
        stars=(),
        route=RouteSkeleton(
            parents={"a": "b", "b": None},
            payload_counts={"a": payload},
        ),
    )


@pytest.mark.parametrize("tuple_bits,value_bits", [(12, 1), (8, 8), (5, 32)])
@pytest.mark.parametrize("payload", [1, 2, 3, 7])
def test_two_party_route_rounds_kernel_matches_recurrence(
    payload, tuple_bits, value_bits
):
    skeleton = _route_only_skeleton(payload, tuple_bits, value_bits)
    timing = evaluate_timing(skeleton)
    env = {
        "B": skeleton.capacity, "b_t": tuple_bits, "b_v": value_bits,
        "P": payload,
    }
    assert timing.rounds == evaluate(two_party_route_rounds(), env)
    # The structural route_link_bits kernel: P*(b_t+b_v) + EOS.
    assert timing.total_bits == payload * (tuple_bits + value_bits) + 1
    assert timing.bits_per_edge == {
        ("a", "b"): payload * (tuple_bits + value_bits) + 1
    }


def test_structural_forms_match_recurrence_with_a_star():
    # One star: center root "a" broadcasting 5 slots down one tree edge
    # to "b", then 2 payload items route b -> a.
    skeleton = CostSkeleton(
        nodes=("a", "b"),
        output_player="a",
        capacity=8,
        tuple_bits=8,
        value_bits=1,
        stars=(
            StarSkeleton(
                star_id=0, center_edge="R",
                trees=({"a": None, "b": "a"},), counts=(5,),
            ),
        ),
        route=RouteSkeleton(
            parents={"b": "a", "a": None}, payload_counts={"b": 2}
        ),
    )
    total, per_edge, env = structural_costs(skeleton)
    timing = evaluate_timing(skeleton)
    assert evaluate(total, env) == timing.total_bits
    # scatter 32 + 5*8, combine 5*1, route 2*9 + 1.
    assert timing.total_bits == (32 + 40) + 5 + (18 + 1)
    assert {
        link: evaluate(expr, env) for link, expr in per_edge.items()
    } == timing.bits_per_edge
    assert timing.max_edge_bits_per_round <= skeleton.capacity


def test_colocated_skeleton_is_free():
    skeleton = CostSkeleton(
        nodes=("a",), output_player="a", capacity=8, tuple_bits=8,
        value_bits=1, stars=(),
        route=RouteSkeleton(parents={}, payload_counts={}),
    )
    timing = evaluate_timing(skeleton)
    assert timing.rounds == 0
    assert timing.total_bits == 0
    assert timing.max_edge_bits_per_round == 0


def test_round_overrun_raises_cost_model_error():
    skeleton = _route_only_skeleton(10, 12, 1)
    with pytest.raises(CostModelError, match="max_rounds"):
        evaluate_timing(skeleton, max_rounds=1)


# ---------------------------------------------------------------------------
# End-to-end oracle: prediction == execution
# ---------------------------------------------------------------------------


def _fresh_prediction(spec):
    clear_all_memos()
    planner, plan = plan_scenario(spec)
    return predict_costs(spec, plan, planner.topology.nodes, planner.query)


def _assert_exact(spec):
    result = execute_scenario(spec)
    block = result.cost_model
    assert block["exact_match"] is True, (
        f"cost model mispredicted {spec.label}: {block}"
    )
    # And a fresh prediction (no plan reuse) agrees with the recorded one.
    prediction = _fresh_prediction(spec)
    assert prediction.metrics() == block["measured"]
    return result, prediction


def test_predict_matches_execution_on_random_cell():
    spec = ScenarioSpec(
        family="f", query="acyclic", query_params={"edges": 3, "arity": 2},
        topology="hypercube", topology_params={"dim": 2}, n=8,
        domain_size=4, semiring="counting", seed=11,
    )
    _assert_exact(spec)
    _assert_exact(spec.with_(engine="compiled"))
    _assert_exact(spec.with_(backend="columnar", solver="compiled"))


def test_predict_matches_execution_on_single_placement():
    spec = ScenarioSpec(
        family="f", query="tree", query_params={"vertices": 5},
        topology="star", topology_params={"leaves": 3}, n=8,
        domain_size=4, assignment="single", seed=5,
    )
    result, prediction = _assert_exact(spec)
    assert prediction.rounds == 0
    assert prediction.total_bits == 0
    assert result.measured_rounds == 0


def test_a_family_added_to_the_pipeline_is_gated_from_its_first_run(
    monkeypatch, tmp_path, capsys
):
    from repro import pipeline
    from repro.lab.__main__ import main as lab_main
    from repro.lab.spec import SuiteSpec
    from repro.lab.suites import register_suite

    monkeypatch.setitem(
        pipeline.QUERY_FAMILIES, "tree-twin", pipeline.QUERY_FAMILIES["tree"]
    )
    spec = ScenarioSpec(
        family="twin", query="tree-twin", query_params={"vertices": 5},
        topology="line", topology_params={"n": 3}, n=8, domain_size=4,
        seed=5,
    )
    assert execute_scenario(spec).cost_model["exact_match"] is True

    # A prediction one round off is a mismatch on the new family's run.
    predict = pipeline.predicted_metrics

    def one_round_late(*args):
        metrics = predict(*args)
        metrics["rounds"] += 1
        return metrics

    monkeypatch.setattr("repro.lab.runner.predicted_metrics", one_round_late)
    record = execute_scenario(spec).deterministic_record()
    (failure,) = cost_mismatches([record])
    assert failure.startswith(f"{spec.label}: rounds predicted=")
    register_suite(
        "tree-twin", lambda: SuiteSpec("tree-twin", (spec,)), overwrite=True
    )
    code = lab_main(
        ["run", "tree-twin", "--out", str(tmp_path), "--no-cache", "--quiet"]
    )
    assert code == 1
    assert "COST MISMATCHES (1)" in capsys.readouterr().out


def test_prediction_block_shape_in_result_record():
    spec = ScenarioSpec(
        family="f", query="hard-star", query_params={"arms": 3},
        topology="line", topology_params={"n": 3}, n=12,
        assignment="worst-case", seed=7,
    )
    record = execute_scenario(spec).deterministic_record()
    block = record["cost_model"]
    assert set(block) == {"covered", "measured", "predicted", "exact_match"}
    assert block["exact_match"] is True
    assert set(block["predicted"]) == {
        "rounds", "total_bits", "max_edge_bits_per_round",
        "bits_per_edge_digest",
    }
    assert block["predicted"] == block["measured"]


def test_predicted_edge_map_reproduces_cut_transcript():
    """The model prices the Lemma 4.4 cut transcript too: restricting
    the predicted per-link map to the min-cut edges reproduces the
    executed run's crossing bits exactly."""
    from repro.core.planner import Planner
    from repro.pipeline import build_assignment, build_query, build_topology
    from repro.lowerbounds import cut_transcript, predicted_crossing_bits

    spec = ScenarioSpec(
        family="f", query="hard-path", query_params={"edges": 4},
        topology="ring", topology_params={"n": 5}, n=16,
        assignment="worst-case", seed=3,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    planner = Planner(
        built.query, topology,
        assignment=build_assignment(spec, built, topology),
    )
    report = planner.execute(max_rounds=spec.max_rounds)
    transcript = cut_transcript(
        topology, planner.players, report.protocol.simulation
    )
    prediction = predict_costs(
        spec, plan=report.protocol.plan, nodes=topology.nodes,
        query=planner.query,
    )
    assert predicted_crossing_bits(
        transcript.crossing_edges, prediction.bits_per_edge
    ) == transcript.bits_crossing > 0


# ---------------------------------------------------------------------------
# Regression pin: the known-loose Ω̃ hard-forest case (PR 5's gap-0.79
# diagnostic) — the rounds-form formula under-shoots by a constant, but
# the symbolic model pins the run exactly.
# ---------------------------------------------------------------------------


def test_hard_forest_loose_gap_case_is_predicted_exactly():
    spec = ScenarioSpec(
        family="fuzz-hard-forest",
        query="hard-forest",
        query_params={"edges": 3, "trees": 3},
        topology="tree",
        topology_params={"branching": 2, "depth": 2},
        n=64,
        assignment="worst-case",
        seed=957508337,
    )
    result = execute_scenario(spec)
    # The diagnostic that motivated un-gating the rounds-form formula:
    # measured rounds undercut the Ω̃ formula (gap < 1) while the bits
    # floor holds comfortably.
    assert result.gap is not None and result.gap < 1.0
    assert result.tribes_bits_floor == 192
    assert result.cut_bits >= result.tribes_bits_floor
    # The symbolic model has no suppressed constant: it pins this exact
    # run — 116 rounds, 3659 bits, busiest link-round 12 = B.
    prediction = _fresh_prediction(spec)
    assert prediction.rounds == result.measured_rounds == 116
    assert prediction.total_bits == result.total_bits == 3659
    assert prediction.max_edge_bits_per_round == 12 == prediction.environment["B"]
    assert result.cost_model["exact_match"] is True
    # The closed form is fully symbolic: every symbol is a structural
    # parameter, so the "constant" is not fitted anywhere.
    assert set(prediction.total_bits_expr.free_symbols()) <= set(
        prediction.environment
    )


_PARALLEL_SUBPHASE_PIN = ScenarioSpec(
    family="fuzz-tree",
    query="tree",
    query_params={"edges": 4},
    topology="regular",
    topology_params={"degree": 3, "n": 8, "seed": 46},
    n=48,
    domain_size=8,
    semiring="min-plus",
    assignment="round-robin",
    max_rounds=2_000_000,
    engine="compiled",
    seed=394694135,
)


def test_parallel_subphase_completion_blocks_fast_forward_replay():
    """Regression pin: the Hypothesis sweep's first real catch.

    On this two-tree star (both star trees run inside one node's
    parallel group), the compiled engine's own round loop (since
    deleted: a compiled run reads its clock from the count plane)
    replayed a steady cycle whose recorded signature contained a
    *finished* member's final slot send — the group's completion never
    moves the program index, so the ``moved_any`` jump guard could not
    see it — over-charging one convergecast slot per tree (here +64
    bits vs the generator engine).  In the count plane a finished member
    sleeps no more and its final blocks are never replayed; prediction,
    compiled measurement and generator measurement must all agree
    exactly.
    """
    spec = _PARALLEL_SUBPHASE_PIN
    compiled = execute_scenario(spec)
    assert compiled.cost_model["exact_match"] is True, compiled.cost_model
    generator = execute_scenario(spec.with_(engine="generator"))
    assert compiled.total_bits == generator.total_bits == 8496
    assert compiled.measured_rounds == generator.measured_rounds == 32
    assert (
        compiled.cost_model["measured"] == generator.cost_model["measured"]
    )


# ---------------------------------------------------------------------------
# Steady-state jumps of the timing recurrence
# ---------------------------------------------------------------------------


def _skeleton_of(spec):
    planner, plan = plan_scenario(spec)
    return extract_skeleton(
        plan, tuple(planner.topology.nodes), planner.query
    )


def test_count_plane_twin_of_the_parallel_subphase_pin():
    timing = evaluate_timing(_skeleton_of(_PARALLEL_SUBPHASE_PIN))
    assert (timing.rounds, timing.total_bits) == (32, 8496)


def _pin(family, query, query_params, topology, topology_params, n,
         domain_size, semiring, assignment, seed):
    return ScenarioSpec(
        family=family, query=query, query_params=query_params,
        topology=topology, topology_params=topology_params, n=n,
        domain_size=domain_size, semiring=semiring, assignment=assignment,
        max_rounds=2_000_000, engine="generator", seed=seed,
    )


#: One fuzz scenario per guard of the count plane's skipping, each found
#: by differential search (the recurrence against itself stepping every
#: round, with that guard removed) and priced wrong — or not at all —
#: without it.  The default 200-run fuzz gate misses some of them.  The
#: first six were found for the whole-network jump and still pin
#: rounds and bits; the comments say what each guards now.  Rounds were
#: re-pinned when each star's combine began to leave behind its scatter
#: (bits unchanged), so a comment's round count is the schedule's before.
_JUMP_GUARD_PINS = {
    # A root convergecast held back by a slow tree while a fast member
    # finishes.  Found for the whole-network jump, which replayed the
    # member's final frame (+32 bits); it pins rounds and bits (the
    # finish rule's gates are the goldens and the jump differential).
    "parallel-member-finish": (_pin(
        "fuzz-tree", "tree", {"edges": 4}, "regular",
        {"degree": 3, "n": 6, "seed": 51}, 32, 4, "counting",
        "round-robin", 688631229,
    ), 16, 2560),
    # An op that would finish exactly at the end of a sleep must finish
    # in a stepped round, because its successor starts in that same
    # round: a convergecast horizon of ``margin // shrink`` instead of
    # ``(margin - 1) // shrink`` is one round late here (121 rounds).
    "one-cycle-short-of-completion": (_pin(
        "fuzz-forest", "forest", {"edges": 3, "trees": 2}, "line",
        {"n": 4}, 32, 4, "boolean", "round-robin", 601469238,
    ), 114, 850),
    # The next star's scatter reaches a node still busy in this one and
    # its frames queue in that node's mailbox.  A sleeping sender's
    # catch-up counts their bits, so it must also deliver them to the
    # reader whose op has not started.
    "stream-buffering-for-a-later-phase": (_pin(
        "fuzz-hard-path", "hard-path", {"length": 6}, "line", {"n": 3},
        16, 16, "boolean", "worst-case", 262579810,
    ), 57, 660),
    # A buffering queue gets exactly the ``k`` slept rounds' bits: with
    # ``k - 1`` the later broadcast waits for bits that never come, with
    # ``k + 1`` it holds more bits than its header announced.
    "materialized-count-is-k-cycles": (_pin(
        "fuzz-hard-path", "hard-path", {"length": 6, "value": False},
        "tree", {"branching": 2, "depth": 2}, 16, 16, "boolean",
        "worst-case", 692445153,
    ), 61, 1076),
    # Only a reader whose op has not started is buffering.  A running
    # reader took the blocks round by round and a dormant one replays
    # them: materializing into every reader's queue delivers them twice.
    "drained-streams-are-not-materialized": (_pin(
        "fuzz-hard-star", "hard-star", {"arms": 3, "value": False}, "star",
        {"leaves": 4}, 16, 16, "boolean", "worst-case", 508538384,
    ), 21, 176),
    # Found for the whole-network jump's window restart, which is gone
    # (a waking stream's log holds the slept delta twice); it pins
    # rounds and bits only.
    "window-restarts-after-a-jump": (_pin(
        "fuzz-acyclic", "acyclic", {"arity": 4, "edges": 5}, "tree",
        {"branching": 2, "depth": 2}, 32, 8, "boolean", "round-robin",
        985735279,
    ), 72, 2240),
    # A reader whose op starts while the stream it reads sleeps takes
    # the rounds owed so far at its start.  Without that entry it
    # misses them: 100 rounds and 2429 bits.  (The large-topology half
    # of the jump differential, moved to a 5 x 3 grid.)
    "buffered-entry-at-op-start": (_pin(
        "fuzz-hard-forest", "hard-forest", {"edges": 3, "trees": 3}, "grid",
        {"cols": 5, "rows": 3}, 32, 16, "boolean", "worst-case", 269741294,
    ), 122, 2789),
}


@pytest.mark.parametrize("guard", sorted(_JUMP_GUARD_PINS))
def test_jump_guard_pin(guard):
    spec, rounds, bits = _JUMP_GUARD_PINS[guard]
    timing = evaluate_timing(_skeleton_of(spec))
    assert (timing.rounds, timing.total_bits) == (rounds, bits)
    _assert_exact(spec)


def test_pay_hands_steady_blocks_to_readers_that_do_not_replay():
    # Hand-fed: a broadcast at ``a`` settled in round 3, sending 8, 8, 2
    # and 0 bits a round to its four children.  A reader whose op has
    # not started (``b``: its queue is buffering for a later op) gets
    # every slept round at the stream's wake, as one entry after what it
    # already holds: readers sum bits.  A running reader (``c``) gets
    # the blocks round by round, a dormant one (``d``) replays them, and
    # a finished one (``e``) has read its stream to the end.
    contexts = {n: _Ctx(n, capacity=8) for n in "bcde"}
    sender = _Broadcast("later", "p", ["b", "c", "d", "e"], per_item=8)
    sender.node, sender.since = "a", 3
    sender._learn(1000)
    sender.held = 500
    sender.log.extend([(18, (8, 8, 2, 0)), (18, (8, 8, 2, 0))])
    sender.out = sender.blocks(sender.log[1])
    assert sender.out == {"b": 8, "c": 8, "d": 2}
    readers = {}
    for node, wake in (("b", _WAITING), ("c", _AWAKE), ("d", 12),
                       ("e", _DONE)):
        reader = readers[node] = _Broadcast("later", "a", [], per_item=8)
        reader.node, reader.ctx, reader.wake = node, contexts[node], wake
    contexts["b"].queues[("later", "a")] = deque(
        [("bits", 8, 90), ("bits", 3, None)]
    )
    for round_no in range(5, 11):  # ``c`` pulls rounds 4..9
        sender.pay(readers["c"], round_no - 1)
    # Waking after round 10, it catches up k = 7 rounds, then pays.
    bits_per_edge = {("a", n): 1 for n in "bcd"}
    assert _catch_up(sender, 10, bits_per_edge) == 7 * 18
    assert bits_per_edge == {("a", "b"): 57, ("a", "c"): 57, ("a", "d"): 15}
    assert (sender.held, sender.forwarded) == (
        500 + 7 * 18, {"b": 56, "c": 56, "d": 14, "e": 0}
    )
    for reader in readers.values():
        sender.pay(reader, 10)
    assert list(contexts["b"].queues[("later", "a")]) == [
        ("bits", 8, 90), ("bits", 3, None), ("bits", 7 * 8, None),
    ]
    assert list(contexts["c"].queues[("later", "a")]) == [
        ("bits", 8, None)
    ] * 7
    assert all(not contexts[n].queues for n in "de")
    assert sender.paid == {"b": 10, "c": 10}
    # Paid through round 10, a reader gets nothing more for it.
    sender.pay(readers["b"], 10)
    assert len(contexts["b"].queues[("later", "a")]) == 3


def test_streaming_route_jumps_its_queue():
    # The sender's side alone: 50 items of 13 bits stream to a parent
    # that runs no program.  The queue drains 12 bits a round, items
    # straddling rounds: ceil((650 + 1) / 12) = 55 rounds.  The route
    # settles after its second round and wakes a round before its queue
    # runs dry: three steps.
    skeleton = CostSkeleton(
        nodes=("a",), output_player="a", capacity=12, tuple_bits=12,
        value_bits=1, stars=(),
        route=RouteSkeleton(parents={"a": "ghost"}, payload_counts={"a": 50}),
    )
    before = COUNTERS.snapshot()
    timing = evaluate_timing(skeleton)
    delta = counter_delta(before, COUNTERS.snapshot())
    assert (timing.rounds, timing.total_bits) == (55, 50 * 13 + 1)
    assert delta == {
        "costmodel.rounds": 55, "costmodel.fast_forward_rounds": 52,
        "costmodel.stream_steps": 3,
    }


def _released_convergecast(parent, children, per_slot, num_slots):
    """A combine whose scatter has landed all ``num_slots`` tuples (a
    stand-in no program runs), so the gate releases every slot; its
    ``released`` is what its first step sets."""
    scatter = _Broadcast("landed", "ghost", [], per_item=1)
    scatter._learn(num_slots)
    scatter.held, scatter.wake = scatter.length, _DONE
    op = _Convergecast("t", parent, children, per_slot, num_slots, scatter,
                       [scatter])
    op.released = num_slots
    return op


def test_convergecast_horizon_takes_the_slot_floors_lower_envelope():
    # 18-bit slots, the child delivering 32 bits a round and the relay
    # sending 32: room-limited, so the jump must end before the relay's
    # readied bits could fall short of a full round.  The slot floor
    # moves irregularly (32 is no multiple of 18), so the horizon reads
    # its linear lower envelope, received - 17 - moved, which holds
    # while it is not negative.
    op = _released_convergecast("parent", ["child"], 18, 100)
    op.received["child"], op.moved = 17 + 18 * 10, 18 * 10 - 3
    op.ready = op.received["child"] // 18
    op.log.extend([(32, (32,)), (32, (32,))])
    # The gate, with every slot released, bounds it by the stream's end.
    assert op.margins(op.log[-1]) == [
        (100 * 18 - 177 - 1, -32), (3, 0), (100 * 18 - 177, -32),
    ]
    assert op.horizon() == (100 * 18 - 178) // 32
    # A round that sends more than arrives drains the envelope.
    op.log.extend([(32, (30,)), (32, (30,))])
    assert op.horizon() == 3 // 2
    # At 30 bits a round the residues mod 18 step by gcd(30, 18) = 6, so
    # from 193 bits the floor cuts off at most 13, not 17.
    op.received["child"] -= 4
    assert op.horizon() == 3 // 2
    # Below zero the floor may already bite: decline.
    op.received["child"] -= 4
    assert op.horizon() == 0


def test_floor_loss_is_the_most_a_period_cuts_off():
    for unit in range(1, 13):
        for got in range(0, 30):
            for have in range(0, 2 * unit):
                cuts = {(have + k * got) % unit for k in range(unit + 1)}
                assert _floor_loss(have, got, unit) == max(cuts)


def test_broadcast_horizon_stops_before_a_draining_backlog_runs_out():
    # The child link takes 32 bits a round while 20 arrive: the backlog
    # of 300 shrinks by 12 a round and must stay non-negative.
    op = _Broadcast("bc", "parent", ["child"], per_item=8)
    op._learn(1000)
    op.held, op.forwarded["child"] = 500, 200
    op.log.extend([(20, (32,)), (20, (32,))])
    assert op.horizon() == 300 // 12
    op.log.extend([(32, (32,)), (32, (32,))])
    assert op.horizon() == (op.length - 1 - 200) // 32


def test_broadcast_horizon_stops_before_the_header_completes():
    # The frame that completes a broadcast's 32-bit count header carries
    # the count, so it repeats nothing: a root 24 bits into its header
    # at 12 bits a round may not settle, however long its stream.
    ctx = _Ctx("a", capacity=12)
    op = _Broadcast("bc", None, ["b"], per_item=8, root_count=100)
    op.start(ctx)
    for _ in range(2):
        ctx.sent = {}
        op.step(ctx)
    assert op.forwarded["b"] == 24
    assert [blk[-1] for blk in ctx.outbox] == [None, None]
    assert op.horizon() == 0
    ctx.sent = {}
    op.step(ctx)
    assert ctx.outbox[-1][-1] == 100


def test_a_combine_sleeps_through_a_ragged_gate(monkeypatch):
    # A leaf's combine sends 8-bit slots up a 12-bit link behind a
    # scatter landing 12 bits (1.5 tuples) a round: drained every other
    # round and room-limited in between.  The slot floor's periodic
    # envelope proves those rounds steady, so the combine sleeps
    # through them: 9 steps in 140 rounds, 125 of them skipped, and the
    # run equals stepping every stream every round.
    skeleton = CostSkeleton(
        nodes=("a", "b", "c"), output_player="a", capacity=12,
        tuple_bits=8, value_bits=8,
        stars=(StarSkeleton(
            star_id=0, center_edge="R",
            trees=({"a": None, "b": "a", "c": "b"},), counts=(200,),
        ),),
        route=RouteSkeleton(parents={}, payload_counts={}),
    )
    steps = []
    step = _Convergecast.step

    def counted(op, ctx):
        if op.node == "c":
            steps.append(ctx.round)
        return step(op, ctx)

    monkeypatch.setattr(_Convergecast, "step", counted)
    before = COUNTERS.snapshot()
    dormant = evaluate_timing(skeleton)
    delta = counter_delta(before, COUNTERS.snapshot())
    assert dormant.rounds == 140
    assert len(steps) == 9
    assert delta["costmodel.fast_forward_rounds"] == 125
    monkeypatch.setattr(timing_module, "_settle", lambda *_args: [])
    assert evaluate_timing(skeleton) == dormant


def test_a_room_starved_round_is_not_idle():
    # Nothing arrived and nothing moved, but only because another stream
    # had filled the link: the ready bits go up next round, so the round
    # must not be cached as idle.
    ctx = _Ctx("relay", capacity=8)
    op = _released_convergecast("parent", ["child"], 1, 100)
    op.start(ctx)
    op.received["child"] = 5
    ctx.sent["parent"] = 8
    assert not op.step(ctx) and op.moved == 0
    ctx.sent = {}
    assert not op.step(ctx)
    assert op.moved == 5
    assert ctx.outbox == [("relay", "parent", "t", "bits", 5, None)]


def test_streams_sharing_a_link_are_refused():
    # Two packing trees share a -> b (and b -> a), so they are not
    # edge-disjoint (no plan makes them): the root's broadcasts and
    # ``b``'s convergecasts each share a link.  A dormant stream would
    # overdraw the room its mate sends in, so the plan is refused.
    skeleton = CostSkeleton(
        nodes=("a", "b", "c"), output_player="a", capacity=12,
        tuple_bits=8, value_bits=8,
        stars=(StarSkeleton(
            star_id=0, center_edge="R",
            trees=({"a": None, "b": "a"}, {"a": None, "b": "a", "c": "b"}),
            counts=(200, 300),
        ),),
        route=RouteSkeleton(parents={}, payload_counts={}),
    )
    with pytest.raises(CostModelError, match="a -> b: two streams"):
        evaluate_timing(skeleton)


def _straddling_convergecast(length):
    """A star of 200 rows down ``line(length)`` and its 32-bit slots back
    up, over 36-bit links: slots straddle rounds on every link."""
    nodes = tuple(f"n{i}" for i in range(length))
    parents = {node: (nodes[i - 1] if i else None) for i, node in enumerate(nodes)}
    return CostSkeleton(
        nodes=nodes, output_player=nodes[0], capacity=36, tuple_bits=36,
        value_bits=32,
        stars=(StarSkeleton(star_id=0, center_edge="R", trees=(parents,),
                            counts=(200,)),),
        route=RouteSkeleton(parents={}, payload_counts={}),
    )


@pytest.mark.parametrize("length", [2, 3])
def test_straddling_slots_jump_exactly(length, monkeypatch):
    # The leaf sends 36 bits a round, so the slots ready above it grow
    # by 1, 1, ..., then 2: a drained relay may not jump on that, a
    # room-limited one jumps on the slot floor's lower envelope, and the
    # root replays whatever its children do.  Jumping equals stepping.
    skeleton = _straddling_convergecast(length)
    before = COUNTERS.snapshot()
    jumping = evaluate_timing(skeleton)
    jumped = counter_delta(before, COUNTERS.snapshot())
    monkeypatch.setattr(timing_module, "_settle", lambda *_args: [])
    assert evaluate_timing(skeleton) == jumping
    assert jumped["costmodel.fast_forward_rounds"] > 0
    assert jumping.total_bits == (length - 1) * (32 + 200 * 36 + 200 * 32)


def test_a_jump_drops_the_cached_idle_entry():
    # An idle round (nothing arrived, nothing left to move) is logged
    # again as is while nothing arrives.  A jump moves the counters
    # behind that entry, so the next round is stepped in full: here the
    # child is 5 bits ahead after it and they move up.
    ctx = _Ctx("relay", capacity=8)
    op = _released_convergecast("parent", ["child"], 1, 100)
    op.start(ctx)
    for _ in range(2):
        assert not op.step(ctx)
    assert list(op.log) == [(0, (0,)), (0, (0,))] and not ctx.outbox
    op.replay((0, (1,)), 5)
    assert not op.step(ctx)
    assert op.log[-1] == (5, (0,)) and op.moved == 5
    assert ctx.outbox == [("relay", "parent", "t", "bits", 5, None)]


def _stream_line_spec(n):
    return ScenarioSpec(
        family="stream-line", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=n,
        assignment="worst-case", seed=11, backend="columnar",
        engine="compiled", solver="compiled",
    )


def _stream_line_skeleton(n):
    return _skeleton_of(_stream_line_spec(n))


def test_streaming_rounds_are_counted_not_stepped():
    skeleton = _stream_line_skeleton(8192)
    before = COUNTERS.snapshot()
    timing = evaluate_timing(skeleton)
    delta = counter_delta(before, COUNTERS.snapshot())
    rounds, jumped, steps = (delta[name] for name in COSTMODEL_COUNTERS)
    assert timing.rounds == rounds == 8195
    assert rounds - jumped <= 64 and steps <= 64


def _wide_expander_spec(n):
    """``acyclic(edges=8, arity=3)`` counting on ``expander(64, 4)``:
    the golden case at N=96, the ledger's ``wide-expander`` at N=500."""
    return ScenarioSpec(
        family="wide", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=n,
        domain_size=64, semiring="counting", engine="compiled", seed=3,
    )


def _skippable_rounds(skeleton, monkeypatch):
    """Rounds a whole-round skip could cover: in a stepping run, the
    rounds in which no stream changed its delta or finished, less the
    first of each stretch of them (the round its streams settle in)."""
    changing = set()
    step = timing_module._Parallel.step

    def recording(self, ctx):
        finished = step(self, ctx)
        if ctx.changed:
            changing.add(ctx.round)
        return finished

    with monkeypatch.context() as patch:
        patch.setattr(timing_module._Parallel, "step", recording)
        patch.setattr(timing_module, "_settle", lambda *_args: [])
        rounds = evaluate_timing(skeleton).rounds
    return sum(
        t not in changing and t - 1 not in changing and t > 1
        for t in range(1, rounds + 1)
    )


@pytest.mark.parametrize("n, rounds, most_steps, skipped", [
    (96, 78, 1000, 8), (500, 314, 1100, 219),
])
def test_only_changing_streams_step(n, rounds, most_steps, skipped,
                                    monkeypatch):
    # Stepping every running stream while any changed (the whole-network
    # jump) took 3,049 leaf steps at N=96 and 3,655 at N=500; dormant
    # streams step at their horizon or when what they read changes.
    # 1,100 is the engine's node-level member-step count at N=500 before
    # stars were pipelined.  Dormancy skips every round a stepping run
    # shows to be skippable.  At N=500 that is above ``rounds // 3``; at
    # N=96 a pipelined star leaves only rounds 58-66 without a changing
    # stream, so no dormancy can skip ``rounds // 3``.
    skeleton = _skeleton_of(_wide_expander_spec(n))
    before = COUNTERS.snapshot()
    timing = evaluate_timing(skeleton)
    delta = counter_delta(before, COUNTERS.snapshot())
    assert timing.rounds == delta["costmodel.rounds"] == rounds
    assert delta["costmodel.stream_steps"] <= most_steps
    assert delta["costmodel.fast_forward_rounds"] == skipped
    assert skipped == _skippable_rounds(skeleton, monkeypatch)


# ---------------------------------------------------------------------------
# The pipelined star's gate
# ---------------------------------------------------------------------------


def _sequential(scatter, scatters):
    """The gate at the sequential schedule's threshold: no slot leaves a
    node before every scatter stream of the star there has finished."""
    return scatter.landed() if all(s.wake == _DONE for s in scatters) else 0


def test_pipelined_rounds_never_exceed_sequential(monkeypatch):
    """``generate_scenarios(777, 100)`` at x1 and x8, priced under the
    gate and under its sequential threshold: every spec takes no more
    rounds pipelined, and carries the same bits on the same links with
    the same busiest link-round.  The threshold reproduces the schedule
    before pipelining (26,709 rounds at x8, the paper's metric since PR
    31); it reads every scatter of the star at its node, which the
    gate's wake rule does not watch, so it is priced stepping."""
    skeletons = {
        (scale, spec.label): _skeleton_of(spec.with_(n=spec.n * scale))
        for scale in (1, 8) for spec in generate_scenarios(777, 100)
    }

    def price():
        return {
            key: evaluate_timing(skeleton, max_rounds=10_000_000)
            for key, skeleton in skeletons.items()
        }

    pipelined = price()
    monkeypatch.setattr(timing_module, "_released", _sequential)
    monkeypatch.setattr(timing_module, "_settle", lambda *_args: [])
    sequential = price()
    for key in skeletons:
        fast, slow = pipelined[key], sequential[key]
        assert fast.rounds <= slow.rounds, key
        assert (fast.total_bits, fast.max_edge_bits_per_round) == (
            slow.total_bits, slow.max_edge_bits_per_round), key
        assert dict(fast.bits_per_edge) == dict(slow.bits_per_edge), key

    def total(costs, scale):
        return sum(v.rounds for (at, _label), v in costs.items() if at == scale)

    assert (total(pipelined, 1), total(sequential, 1)) == (4_569, 4_913)
    assert (total(pipelined, 8), total(sequential, 8)) == (24_361, 26_709)
    assert sum(
        pipelined[key].rounds < sequential[key].rounds for key in skeletons
    ) == 129


def test_sequential_threshold_agrees_across_planes(monkeypatch):
    """Each plane's gate takes its node's scatters of the star, so the
    sequential threshold is a patch of the rule in both round planes;
    the generator engine then runs what the count plane prices with it
    (stepping), rounds, bits, busiest link-round and per-link map in
    key order, on the first 40 specs of ``generate_scenarios(777,
    ...)``."""
    generator_gate = primitives_module._released

    def generator_sequential(landed, star):
        finished = all(s.done for s in star)
        return generator_gate(landed, star) if finished else 0

    monkeypatch.setattr(timing_module, "_released", _sequential)
    monkeypatch.setattr(timing_module, "_settle", lambda *_args: [])
    monkeypatch.setattr(primitives_module, "_released", generator_sequential)
    for spec in generate_scenarios(777, 40):
        planner, plan = plan_scenario(spec)
        priced = evaluate_timing(_skeleton_of(spec))
        run = run_distributed_faq(
            planner.query, planner.topology, plan.assignment,
            engine="generator", plan=plan,
        ).simulation
        assert (run.rounds, run.total_bits, run.max_edge_bits_per_round,
                list(run.bits_per_edge.items())) == (
            priced.rounds, priced.total_bits,
            priced.max_edge_bits_per_round,
            list(priced.bits_per_edge.items())), spec.label


def _gate_check(events, tuple_bits, value_bits):
    """Fold a trace's sends by round (a skip repeats its round's sends)
    and check, per node and packing tree, that the combine bits it has
    sent by round ``t`` never exceed ``value_bits`` per scatter tuple it
    holds in full by round ``t`` (a frame sent in round ``t - 1`` has
    landed).  Returns the (node, tree) streams checked and those that
    sent a slot before their scatter stream had fully landed."""
    sends = {}
    for event in events:
        if isinstance(event, SendEvent):
            sends.setdefault(event.round, []).append(
                (event.src, event.dst, event.tag, event.bits))
        elif isinstance(event, CycleFastForwardEvent):
            for rnd in range(event.start_round + 1, event.end_round + 1):
                sends.setdefault(rnd, []).extend(
                    (src, dst, tag, bits)
                    for src, dst, tag, _kind, bits in event.sends)
    held, moved, total, early = {}, {}, {}, set()
    for frames in sends.values():
        for _src, dst, tag, bits in frames:
            if ":bc:" in tag:
                key = (dst, tag.replace(":bc:", ":"))
                total[key] = total.get(key, 0) + bits
    for rnd in range(1, max(sends, default=0) + 1):
        for _src, dst, tag, bits in sends.get(rnd - 1, ()):
            if ":bc:" in tag:
                key = (dst, tag.replace(":bc:", ":"))
                held[key] = held.get(key, 0) + bits
        for src, _dst, tag, bits in sends.get(rnd, ()):
            if ":cc:" in tag:
                key = (src, tag.replace(":cc:", ":"))
                moved[key] = moved.get(key, 0) + bits
                tuples = max(0, (held.get(key, 0) - HEADER_BITS) // tuple_bits)
                assert moved[key] <= tuples * value_bits, (key, rnd)
                if held.get(key, 0) < total.get(key, 0):
                    early.add(key)
    return len(moved), len(early)


def test_pipelined_gate_holds_on_traced_runs():
    """The trace-oracle subset (``fuzz-smoke``, both engines): no node
    sends a combine slot of a packing tree before its scatter on that
    tree holds the slot's tuple, read from the traced send tags alone —
    and slots do leave before the scatter has finished."""
    engines, checked, early = set(), 0, 0
    for spec in get_suite("fuzz-smoke").scenarios:
        _result, events = record_scenario_trace(spec)
        _planner, plan = plan_scenario(spec)
        streams, overlapped = _gate_check(
            events, plan.tuple_bits, plan.value_bits)
        engines.add(spec.engine)
        checked += streams
        early += overlapped
    assert engines == {"generator", "compiled"}
    assert checked > 0 and early > 0


def test_pipelined_first_star_within_theorem_3_11():
    """Theorem 3.11 per phase, in rounds at ``B`` bits: the scatter of a
    tree's ``k`` tuples takes at most ``ceil((H + k b_t) / B) + Δ`` and
    the combine ``ceil(k b_v / B) + Δ``.  The first star of every
    ``generate_scenarios(777, 100)`` spec (every node starts it in round
    1, so nothing but the star itself is in its rounds) ends within
    their sum at its root; pipelined it ends at most 0.952 of the way
    there (0.987 sequentially; 0.949 and 0.998 at x8)."""
    worst = 0.0
    for spec in generate_scenarios(777, 100):
        planner, plan = plan_scenario(spec)
        if not plan.stars:
            continue
        tracer = RecordingTracer()
        run_distributed_faq(
            planner.query, planner.topology, plan.assignment,
            engine="compiled", plan=plan, tracer=tracer,
        )
        star = plan.stars[0]
        ended = next(
            event.round for event in tracer.events
            if isinstance(event, ComputeStepEvent)
            and event.node == star.slot_plan.root
            and event.label == "s0:rebuild"
        )
        k = math.ceil(star.center_rows / len(star.slot_plan.trees))
        delta, width = star.slot_plan.delta, plan.capacity_bits
        term = (math.ceil((HEADER_BITS + k * plan.tuple_bits) / width) + delta
                + math.ceil(k * plan.value_bits / width) + delta)
        assert ended <= term, spec.label
        worst = max(worst, ended / term)
    assert worst < 1


@pytest.mark.parametrize("spec, most", [
    pytest.param(_stream_line_spec(8192), 64, id="stream-line-xl"),
    pytest.param(_wide_expander_spec(500), 1_000, id="wide-expander"),
])
def test_gated_streams_sleep_through_a_steady_overlap(spec, most):
    """The count plane lets a gated combine sleep while its scatter
    keeps landing tuples: on the stream-line shape the leaf terminal's
    1-bit combine is gate-limited behind one 26-bit tuple a round, on
    ``wide-expander`` the 32-bit combine is room-limited behind 32/18
    tuples a round.  Stepping either every overlap round would take
    thousands of stream steps (8,195 and 314 rounds).  Measured: 18
    stream steps on the first, 913 on the second."""
    before = COUNTERS.snapshot()
    evaluate_timing(_skeleton_of(spec))
    delta = counter_delta(before, COUNTERS.snapshot())
    assert delta["costmodel.stream_steps"] <= most


@pytest.mark.parametrize("limit", [3, 400, 1020])
def test_round_overrun_inside_a_jumpable_stretch_still_raises(limit):
    skeleton = _stream_line_skeleton(1024)
    needed = evaluate_timing(skeleton).rounds
    assert needed > 1020
    with pytest.raises(CostModelError, match=f"max_rounds={limit}"):
        evaluate_timing(skeleton, max_rounds=limit)
    # The cap is exact: the recurrence needs one silent round past the
    # last send to see every program finish.
    with pytest.raises(CostModelError, match="max_rounds"):
        evaluate_timing(skeleton, max_rounds=needed)
    assert evaluate_timing(skeleton, max_rounds=needed + 1).rounds == needed


def _deadlocking_skeleton():
    """500 slots stream b -> a and back (jumped), then the sink waits
    for an EOS from a routing child that runs no program."""
    return CostSkeleton(
        nodes=("a", "b"), output_player="b", capacity=8, tuple_bits=8,
        value_bits=1,
        stars=(
            StarSkeleton(
                star_id=0, center_edge="R",
                trees=({"b": None, "a": "b"},), counts=(500,),
            ),
        ),
        route=RouteSkeleton(
            parents={"a": "b", "b": None, "ghost": "b"}, payload_counts={}
        ),
    )


def test_deadlock_after_a_jumped_stream_still_raises():
    skeleton = _deadlocking_skeleton()
    before = COUNTERS.snapshot()
    with pytest.raises(CostModelError, match="deadlocked at round"):
        evaluate_timing(skeleton)
    # Nothing is counted for a pricing that failed.
    assert counter_delta(before, COUNTERS.snapshot()) == {}


@pytest.mark.parametrize("case", ["max_rounds", "deadlock"])
def test_errors_do_not_depend_on_dormancy(case, monkeypatch):
    """A run stopped inside or after a jumped stretch names the same
    round and the same live nodes as a run that steps every stream
    every round: dormant streams never hide a node from the error."""
    skeleton, limit = {
        "max_rounds": (_stream_line_skeleton(1024), 400),
        "deadlock": (_deadlocking_skeleton(), 1_000_000),
    }[case]
    errors = []
    for stepping in (False, True):
        if stepping:
            monkeypatch.setattr(timing_module, "_settle", lambda *_args: [])
        with pytest.raises(CostModelError) as err:
            evaluate_timing(skeleton, max_rounds=limit)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(
        "cost model exceeded max_rounds=400" if case == "max_rounds"
        else "cost model deadlocked at round"
    )


def test_context_send_overdraft_raises():
    ctx = _Ctx("a", capacity=8)
    ctx.send("b", "t", "it", 8)
    with pytest.raises(CostModelError, match="overdrew capacity: a->b 9 > 8"):
        ctx.send("b", "t", "it", 1)


# ---------------------------------------------------------------------------
# The count plane's whole result, pinned
# ---------------------------------------------------------------------------

TIMING_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "costmodel_timing.json"
)

#: ``name -> spec``: the forty fuzz scenarios and the ``wide-expander``
#: shape of ``engine_results.json`` (``acyclic(edges=8, arity=3)`` on
#: ``expander(64, 4, seed=1)``, N=96), and the streamed hard star of the
#: jump tests above at N=1024.
TIMING_CASES = {
    **{
        f"fuzz777-{i:02d}": spec
        for i, spec in enumerate(generate_scenarios(777, 40))
    },
    "wide-expander-N96": _wide_expander_spec(96),
    "stream-line-N1024": _stream_line_spec(1024),
}


def timing_golden_record(name):
    """What ``costmodel_timing.json`` holds for one case (also its
    generator): the priced metrics, the ``costmodel.*`` counter deltas,
    and ``bits_per_edge`` as an *ordered* item list."""
    spec = TIMING_CASES[name]
    skeleton = _skeleton_of(spec)
    before = COUNTERS.snapshot()
    timing = evaluate_timing(skeleton)
    delta = counter_delta(before, COUNTERS.snapshot())
    items = [[list(link), bits] for link, bits in timing.bits_per_edge.items()]
    return {
        "label": spec.label,
        "rounds": timing.rounds,
        "total_bits": timing.total_bits,
        "max_edge_bits_per_round": timing.max_edge_bits_per_round,
        **{counter: delta.get(counter, 0) for counter in COSTMODEL_COUNTERS},
        "bits_per_edge_sha256": hashlib.sha256(
            json.dumps(items).encode()
        ).hexdigest(),
    }


@pytest.fixture(scope="module")
def timing_golden():
    with open(TIMING_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_timing_golden_covers_every_case(timing_golden):
    assert sorted(timing_golden) == sorted(TIMING_CASES)
    assert all(
        r["costmodel.fast_forward_rounds"]
        for name, r in timing_golden.items() if not name.startswith("fuzz")
    )


@pytest.mark.parametrize("name", sorted(TIMING_CASES))
def test_timing_matches_golden(name, timing_golden):
    """Rounds, bits, busiest link-round, jump counters and
    ``bits_per_edge`` *in key order*, as the count plane produced them
    before its stepped round was last optimized (regenerate:
    ``tests/golden/README.md``)."""
    assert timing_golden_record(name) == timing_golden[name]


def _op_state(value):
    """A comparable deep copy of op state (ops compare by identity, so
    they unfold into their fields)."""
    if isinstance(value, _Op):
        return (type(value).__name__, _op_state(vars(value)))
    if isinstance(value, dict):
        return {key: _op_state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__, [_op_state(item) for item in value])
    if isinstance(value, set):
        return frozenset(value)
    return value


#: A routed plan: ``hard-forest`` with two trees on ``ring(6)``, its
#: relations placed worst-case, so the final phase routes payloads.
_ROUTED_SPEC = ScenarioSpec(
    family="routed", query="hard-forest",
    query_params={"edges": 4, "trees": 2}, topology="ring",
    topology_params={"n": 6}, n=64, assignment="worst-case",
    engine="compiled", seed=5,
)


@pytest.mark.parametrize("name, rounds, kinds", [
    ("wide-expander", 78, ("_Broadcast", "_Convergecast")),
    ("routed", 92, ("_Broadcast", "_Route")),
])
def test_horizon_leaves_every_op_unchanged(name, rounds, kinds, monkeypatch):
    """Which streams are asked for a horizon depends on which settle
    candidates the round has and in what order: that is only exact
    while asking changes nothing.  Every stream class's ``horizon`` is
    wrapped to compare the stream's counters and log (its whole state
    but the wiring to other streams) before and after."""
    calls = {}
    wiring = ("reads", "readers", "watchers", "group", "ctx", "gate",
              "scatters")

    def state(stream):
        return _op_state(
            {k: v for k, v in vars(stream).items() if k not in wiring}
        )

    for cls in (_Broadcast, _Convergecast, _Route):
        def checked(self, _horizon=cls.horizon, _cls=cls):
            before = state(self)
            horizon = _horizon(self)
            assert state(self) == before, _cls.__name__
            calls[_cls.__name__] = calls.get(_cls.__name__, 0) + 1
            return horizon
        monkeypatch.setattr(cls, "horizon", checked)
    spec = {
        "wide-expander": TIMING_CASES["wide-expander-N96"],
        "routed": _ROUTED_SPEC,
    }[name]
    assert evaluate_timing(_skeleton_of(spec)).rounds == rounds
    for kind in kinds:
        assert calls.get(kind), kind


# ---------------------------------------------------------------------------
# Demand-driven skeleton replay
# ---------------------------------------------------------------------------


def test_no_routed_relation_means_no_replay(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a star scored with nothing routed")

    monkeypatch.setattr(compiler, "star_contributions", forbidden)
    skeleton = _stream_line_skeleton(256)
    assert skeleton.stars and skeleton.route.payload_counts == {}


def test_replay_covers_exactly_the_stars_under_a_routed_relation(monkeypatch):
    # hard-forest, 3 trees: T1R2 is routed and sits above a two-level
    # star chain (T1R1 is a leaf of its star and the center of another);
    # the output player's own tree is never replayed.
    spec = ScenarioSpec(
        family="fuzz-hard-forest", query="hard-forest",
        query_params={"edges": 4, "trees": 3}, topology="tree",
        topology_params={"branching": 2, "depth": 1}, n=32, domain_size=16,
        semiring="boolean", assignment="worst-case", max_rounds=2_000_000,
        engine="generator", seed=683095019,
    )
    _planner, plan = plan_scenario(spec)
    centers = {star.center_edge: star for star in plan.stars}
    assert plan.assignment["T1R2"] != plan.output_player
    assert "T1R1" in centers["T1R2"].leaf_edges and "T1R1" in centers

    replayed = set()
    real = compiler.star_contributions

    def recording(plan, query, star, state, node):
        replayed.add(star.center_edge)
        return real(plan, query, star, state, node)

    monkeypatch.setattr(compiler, "star_contributions", recording)
    result, prediction = _assert_exact(spec)
    assert {"T1R2", "T1R1"} <= replayed < set(centers)
    # Routed items, counted without execution, price the run exactly.
    assert sum(prediction.skeleton.route.payload_counts.values()) > 0
    assert prediction.total_bits == result.total_bits


def test_a_routed_relation_is_priced_after_the_stars_two_levels_below():
    """The routed final relation ``F`` survives as much as its leaf
    ``L`` lets it, and ``L`` as much as its own leaf ``M`` does: pricing
    that skipped ``M``'s star would count two routed rows, not one.  The
    count plane over the priced skeleton reproduces the generator
    engine, which ships the rows."""
    relations = {
        "M": (("a", "b"), {(1, 1): True}),
        "L": (("b", "c"), {(1, 10): True, (2, 20): True}),
        "F": (("c", "d"), {(10, 100): True, (20, 200): True}),
    }
    query = FAQQuery(
        hypergraph=Hypergraph(
            {n: schema for n, (schema, _rows) in relations.items()}),
        factors={n: Factor(schema, rows, BOOLEAN, n)
                 for n, (schema, rows) in relations.items()},
        domains={"a": (1,), "b": (1, 2), "c": (10, 20), "d": (100, 200)},
        backend="columnar",
    )
    ghd = GHD(query.hypergraph)
    ghd.add_node("F", {"c", "d"}, {"F"})
    ghd.add_node("L", {"b", "c"}, {"L"}, parent="F")
    ghd.add_node("M", {"a", "b"}, {"M"}, parent="L")
    topology = Topology.line(3)
    assignment = {"M": "P2", "L": "P1", "F": "P2"}
    report = run_distributed_faq(
        query, topology, assignment, output_player="P0", ghd=ghd,
        engine="generator")
    plan = report.plan
    assert [(s.center_edge, s.leaf_edges) for s in plan.stars] == [
        ("L", ("M",)), ("F", ("L",))]
    assert plan.final_edges == ("F",)
    skeleton = extract_skeleton(plan, tuple(topology.nodes), query)
    assert skeleton.route.payload_counts == {"P2": 1}
    assert evaluate_timing(skeleton) == CostVector(
        rounds=report.rounds,
        total_bits=report.total_bits,
        max_edge_bits_per_round=report.simulation.max_edge_bits_per_round,
        bits_per_edge=report.simulation.bits_per_edge,
    )
