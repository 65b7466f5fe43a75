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
* the steady-state jump of the recurrence and the demand-driven
  skeleton replay: pins found by differential search (jumping vs
  stepping every round), the error paths under a jump, and the counter
  ledger.
"""

import hashlib
import json
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
from repro.costmodel import skeleton as skeleton_module
from repro.costmodel import timing as timing_module
from repro.costmodel.formulas import two_party_route_rounds
from repro.costmodel.timing import (
    _Broadcast,
    _Convergecast,
    _Ctx,
    _materialize,
    _Op,
    _Parallel,
    _Route,
)
from repro.lab.generate import generate_scenarios
from repro.lab.report import cost_mismatches
from repro.lab.runner import execute_scenario
from repro.lab.spec import ScenarioSpec
from repro.obs.counters import COSTMODEL_COUNTERS, COUNTERS, counter_delta
from repro.pipeline import plan_scenario


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
    # run — 121 rounds, 3659 bits, busiest link-round 12 = B.
    prediction = _fresh_prediction(spec)
    assert prediction.rounds == result.measured_rounds == 121
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
    ``ParallelOps`` group), the compiled engine's cycle fast-forward
    used to replay a steady cycle whose recorded signature contained a
    *finished* member's final slot send — the group's completion never
    moves the program index, so the ``moved_any`` jump guard could not
    see it — over-charging one convergecast slot per tree (here +64
    bits vs the generator engine).  ``ParallelOps.cycle_horizon`` now
    declines the jump while any member finished inside the cycle
    window; prediction, compiled measurement and generator measurement
    must all agree exactly.
    """
    spec = _PARALLEL_SUBPHASE_PIN
    compiled = execute_scenario(spec)
    assert compiled.cost_model["exact_match"] is True, compiled.cost_model
    generator = execute_scenario(spec.with_(engine="generator"))
    assert compiled.total_bits == generator.total_bits == 8496
    assert compiled.measured_rounds == generator.measured_rounds == 36
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
    assert (timing.rounds, timing.total_bits) == (36, 8496)


def _pin(family, query, query_params, topology, topology_params, n,
         domain_size, semiring, assignment, seed):
    return ScenarioSpec(
        family=family, query=query, query_params=query_params,
        topology=topology, topology_params=topology_params, n=n,
        domain_size=domain_size, semiring=semiring, assignment=assignment,
        max_rounds=2_000_000, engine="generator", seed=seed,
    )


#: One fuzz scenario per jump guard, each found by differential search
#: (the jumping recurrence against the same recurrence stepping every
#: round, with that guard removed) and priced wrong — or not at all —
#: without it.  The default 200-run fuzz gate misses the first two.
#: The failures quoted are those of the guard's mutation under bit
#: framing.
_JUMP_GUARD_PINS = {
    # A root convergecast held back by a slow tree keeps a positive
    # horizon while a fast member finishes; replaying that member's
    # final frame adds 32 bits unless ``_Parallel.step`` flags the
    # finish.
    "parallel-member-finish": (_pin(
        "fuzz-tree", "tree", {"edges": 4}, "regular",
        {"degree": 3, "n": 6, "seed": 51}, 32, 4, "counting",
        "round-robin", 688631229,
    ), 16, 2560),
    # An op that would finish exactly at the end of a jump must finish
    # in a stepped round, because its successor starts in that same
    # round: a convergecast horizon of ``margin // shrink`` instead of
    # ``(margin - 1) // shrink`` is one round late here (121 rounds).
    "one-cycle-short-of-completion": (_pin(
        "fuzz-forest", "forest", {"edges": 3, "trees": 2}, "line",
        {"n": 4}, 32, 4, "boolean", "round-robin", 601469238,
    ), 120, 850),
    # The next star's scatter reaches a node still busy in this one and
    # its frames queue in that node's mailbox.  The jump counts their
    # bits, so it must also deliver them: with ``_materialize`` a no-op
    # the scatter's receiver never sees its bits (deadlock, round 24).
    "stream-buffering-for-a-later-phase": (_pin(
        "fuzz-hard-path", "hard-path", {"length": 6}, "line", {"n": 3},
        16, 16, "boolean", "worst-case", 262579810,
    ), 60, 660),
    # A buffering stream gets exactly the ``k`` skipped rounds' bits.
    # With ``(k - 1) * bits`` the later broadcast waits for bits that
    # never come (deadlock, round 28); with ``(k + 1) * bits`` — which
    # is also what delivering the stepped round's own, still-pending
    # sends a second time amounts to — it holds more bits than its
    # header announced and never completes (deadlock, round 30).
    "materialized-count-is-k-cycles": (_pin(
        "fuzz-hard-path", "hard-path", {"length": 6, "value": False},
        "tree", {"branching": 2, "depth": 2}, 16, 16, "boolean",
        "worst-case", 692445153,
    ), 63, 1076),
    # Only a stream with blocks still queued is buffering.  One with an
    # empty queue is read by its receiver's current op, whose ``jump``
    # already advanced by the round's arrivals: materializing every
    # stream delivers those twice (deadlock, round 22).  No stream
    # buffers in this scenario.
    "drained-streams-are-not-materialized": (_pin(
        "fuzz-hard-star", "hard-star", {"arms": 3, "value": False}, "star",
        {"leaves": 4}, 16, 16, "boolean", "worst-case", 508538384,
    ), 22, 176),
    # Right after a jump the window restarts at the jump's last round.
    # With period-1 jumps that is conservative — the round before a jump
    # is what the skipped rounds would have logged — so this entry pins
    # rounds and bits only.
    "window-restarts-after-a-jump": (_pin(
        "fuzz-acyclic", "acyclic", {"arity": 4, "edges": 5}, "tree",
        {"branching": 2, "depth": 2}, 32, 8, "boolean", "round-robin",
        985735279,
    ), 77, 2240),
}


@pytest.mark.parametrize("guard", sorted(_JUMP_GUARD_PINS))
def test_jump_guard_pin(guard):
    spec, rounds, bits = _JUMP_GUARD_PINS[guard]
    timing = evaluate_timing(_skeleton_of(spec))
    assert (timing.rounds, timing.total_bits) == (rounds, bits)
    _assert_exact(spec)


def test_materialize_touches_only_buffering_streams_of_live_receivers():
    # Hand-fed: the round's sends are delivered k times and readers sum
    # bits, so one entry per buffering stream stands for all k.  A
    # finished program has read its streams to the end, so its queues
    # are empty and it is skipped like a node that runs no program;
    # nothing reads such a queue, so no mutation there is observable
    # (2000 fuzz specs at x1 and x8: 213 buffered streams, none into a
    # finished program).
    contexts = {"b": _Ctx("b", capacity=8), "c": _Ctx("c", capacity=8)}
    contexts["b"].queues = {
        ("later", "a"): deque([("bits", 8, 90), ("bits", 3, None)]),
        ("now", "a"): deque(),
    }
    sends = [
        ("a", "b", "later", "bits", 8, None),
        ("a", "b", "now", "bits", 8, None),
        ("a", "ghost", "later", "bits", 8, None),
        ("a", "c", "later", "bits", 2, None),
    ]
    _materialize(sends, 7, contexts)
    assert list(contexts["b"].queues[("later", "a")]) == [
        ("bits", 8, 90), ("bits", 3, None), ("bits", 56, None),
    ]
    assert not contexts["b"].queues[("now", "a")]
    assert contexts["c"].queues == {}


def test_streaming_route_jumps_its_queue():
    # The sender's side alone: 50 items of 13 bits stream to a parent
    # that runs no program.  The queue drains 12 bits a round, items
    # straddling rounds: ceil((650 + 1) / 12) = 55 rounds, and the jump
    # stops a round before the queue runs dry.
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
    }


def test_convergecast_horizon_takes_the_slot_floors_lower_envelope():
    # 18-bit slots, the child delivering 32 bits a round and the relay
    # sending 32: room-limited, so the jump must end before the relay's
    # readied bits could fall short of a full round.  The slot floor
    # moves irregularly (32 is no multiple of 18), so the horizon reads
    # its linear lower envelope, received - 17 - moved, which holds
    # while it is not negative.
    op = _Convergecast("t", "parent", ["child"], per_slot=18, num_slots=100)
    op.received["child"], op.moved = 17 + 18 * 10, 18 * 10 - 3
    op.ready = op.received["child"] // 18
    op.log.extend([(32, (32,)), (32, (32,))])
    assert op.margins(op.log[-1]) == [(100 * 18 - 177 - 1, -32), (3, 0)]
    assert op.horizon() == (100 * 18 - 178) // 32
    # A round that sends more than arrives drains the envelope.
    op.log.extend([(32, (30,)), (32, (30,))])
    assert op.horizon() == 3 // 2
    # Below zero the floor may already bite: decline.
    op.received["child"] -= 4
    assert op.horizon() == 0


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


def test_a_room_starved_round_is_not_idle():
    # Nothing arrived and nothing moved, but only because another stream
    # had filled the link: the ready bits go up next round, so the round
    # must not be cached as idle.
    ctx = _Ctx("relay", capacity=8)
    op = _Convergecast("t", "parent", ["child"], per_slot=1, num_slots=100)
    op.start(ctx)
    op.received["child"] = 5
    ctx.sent["parent"] = 8
    assert not op.step(ctx) and op.moved == 0
    ctx.sent = {}
    assert not op.step(ctx)
    assert op.moved == 5
    assert ctx.outbox == [("relay", "parent", "t", "bits", 5, None)]


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
    monkeypatch.setattr(timing_module, "_steady_cycles", lambda *_args: 0)
    assert evaluate_timing(skeleton) == jumping
    assert jumped["costmodel.fast_forward_rounds"] > 0
    assert jumping.total_bits == (length - 1) * (32 + 200 * 36 + 200 * 32)


def test_a_jump_drops_the_cached_idle_entry():
    # An idle round (nothing arrived, nothing left to move) is logged
    # again as is while nothing arrives.  A jump moves the counters
    # behind that entry, so the next round is stepped in full: here the
    # child is 5 bits ahead after it and they move up.
    ctx = _Ctx("relay", capacity=8)
    op = _Convergecast("t", "parent", ["child"], per_slot=1, num_slots=100)
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
    rounds, jumped = (delta[name] for name in COSTMODEL_COUNTERS)
    assert timing.rounds == rounds == 8510
    assert rounds - jumped <= 64


@pytest.mark.parametrize("limit", [3, 400, 1033])
def test_round_overrun_inside_a_jumpable_stretch_still_raises(limit):
    skeleton = _stream_line_skeleton(1024)
    needed = evaluate_timing(skeleton).rounds
    assert needed > 1033
    with pytest.raises(CostModelError, match=f"max_rounds={limit}"):
        evaluate_timing(skeleton, max_rounds=limit)
    # The cap is exact: the recurrence needs one silent round past the
    # last send to see every program finish.
    with pytest.raises(CostModelError, match="max_rounds"):
        evaluate_timing(skeleton, max_rounds=needed)
    assert evaluate_timing(skeleton, max_rounds=needed + 1).rounds == needed


def test_deadlock_after_a_jumped_stream_still_raises():
    # 500 slots stream b -> a and back (jumped), then the sink waits for
    # an EOS from a routing child that runs no program.
    skeleton = CostSkeleton(
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
    before = COUNTERS.snapshot()
    with pytest.raises(CostModelError, match="deadlocked at round"):
        evaluate_timing(skeleton)
    # Nothing is counted for a pricing that failed.
    assert counter_delta(before, COUNTERS.snapshot()) == {}


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
    "wide-expander-N96": ScenarioSpec(
        family="wide", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=96,
        domain_size=64, semiring="counting", engine="compiled", seed=3,
    ),
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


def test_horizon_leaves_every_op_unchanged(monkeypatch):
    """A jump check stops at the first op that declines, so which ops it
    asks depends on the step order: that is only exact while asking
    changes nothing.  Every op class's ``horizon`` is wrapped to compare
    the op's counters and log (its whole state) before and after."""
    calls = {}
    for cls in (_Parallel, _Broadcast, _Convergecast, _Route):
        def checked(self, _horizon=cls.horizon, _cls=cls):
            before = _op_state(vars(self))
            horizon = _horizon(self)
            assert _op_state(vars(self)) == before, _cls.__name__
            calls[_cls.__name__] = calls.get(_cls.__name__, 0) + 1
            return horizon
        monkeypatch.setattr(cls, "horizon", checked)
    timing = evaluate_timing(_skeleton_of(TIMING_CASES["wide-expander-N96"]))
    assert timing.rounds == 108
    assert calls.get("_Parallel") and calls.get("_Broadcast")
    assert calls.get("_Convergecast")


# ---------------------------------------------------------------------------
# Demand-driven skeleton replay
# ---------------------------------------------------------------------------


def test_no_routed_relation_means_no_replay(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("score_rows called with nothing routed")

    monkeypatch.setattr(skeleton_module, "score_rows", forbidden)
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

    scored = []
    real = skeleton_module.score_rows

    def recording(semiring, schema, contributions, rows):
        scored.append(tuple(schema))
        return real(semiring, schema, contributions, rows)

    monkeypatch.setattr(skeleton_module, "score_rows", recording)
    result, prediction = _assert_exact(spec)
    replayed = {
        star.center_edge for star in plan.stars
        if star.center_schema in scored
    }
    assert {"T1R2", "T1R1"} <= replayed < set(centers)
    # Routed items, counted without execution, price the run exactly.
    assert sum(prediction.skeleton.route.payload_counts.values()) > 0
    assert prediction.total_bits == result.total_bits
