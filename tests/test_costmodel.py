"""Tests for the symbolic cost plane (:mod:`repro.costmodel`).

Three layers:

* the expression mini-language (exact integer algebra + optional sympy
  bridge);
* the kernel closed forms, validated against the timing recurrence on
  synthetic skeletons (the two-party routing kernel in particular);
* the end-to-end oracle: predictions must equal executed measurements
  bit-for-bit on covered cells — including the hypothesis-driven
  property sweep over the fuzz generator and the regression pin of the
  known-loose Ω̃ hard-forest case.
"""

import pytest

from repro.core.memo import clear_all_memos
from repro.costmodel import (
    COVERED_CELLS,
    CostModelError,
    CostSkeleton,
    RouteSkeleton,
    StarSkeleton,
    add,
    ceildiv,
    cell_of,
    const,
    coverage_report,
    edge_digest,
    evaluate,
    evaluate_timing,
    floordiv,
    format_cell,
    format_kernel_table,
    have_sympy,
    is_covered,
    max_,
    mul,
    predict_costs,
    structural_costs,
    sym,
    to_sympy,
)
from repro.costmodel.formulas import two_party_route_rounds
from repro.lab.runner import execute_scenario
from repro.lab.spec import ScenarioSpec
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
# Coverage surface
# ---------------------------------------------------------------------------


def test_covered_cells_enumeration():
    # 3 hard families x 3 placements + 4 random families x 2 placements,
    # x 11 topologies x 2 engines.
    assert len(COVERED_CELLS) == (3 * 3 + 4 * 2) * 11 * 2
    assert ("hard-forest", "tree", "worst-case", "generator") in COVERED_CELLS
    assert ("acyclic", "ring", "round-robin", "compiled") in COVERED_CELLS
    # Random families never run under worst-case placement.
    assert ("acyclic", "ring", "worst-case", "generator") not in COVERED_CELLS


def test_cell_of_and_coverage_report():
    spec = ScenarioSpec(
        family="f", query="hard-star", query_params={"arms": 3},
        topology="line", topology_params={"n": 3}, n=12,
        assignment="worst-case", seed=1,
    )
    assert cell_of(spec) == ("hard-star", "line", "worst-case", "generator")
    assert is_covered(spec)
    fake_uncovered = ("mystery", "line", "round-robin", "generator")
    report = coverage_report([cell_of(spec), cell_of(spec), fake_uncovered])
    assert report["runs"] == 3
    assert report["covered_runs"] == 2
    assert report["covered_cells"] == [format_cell(cell_of(spec))]
    assert report["uncovered_cells"] == ["mystery@line/round-robin/generator"]


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
    return predict_costs(spec, plan, planner.topology.nodes)


def _assert_exact(spec):
    result = execute_scenario(spec)
    block = result.cost_model
    assert block is not None and block["covered"], block
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


def test_uncovered_cell_is_reported_not_gated():
    # 'degenerate' under worst-case placement is rejected by the lab
    # builder itself, so fabricate uncoveredness at the cell layer.
    assert ("degenerate", "clique", "worst-case", "generator") \
        not in COVERED_CELLS


def test_prediction_block_shape_in_result_record():
    spec = ScenarioSpec(
        family="f", query="hard-star", query_params={"arms": 3},
        topology="line", topology_params={"n": 3}, n=12,
        assignment="worst-case", seed=7,
    )
    record = execute_scenario(spec).deterministic_record()
    block = record["cost_model"]
    assert block["cell"] == ["hard-star", "line", "worst-case", "generator"]
    assert block["covered"] is True
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
        spec, plan=report.protocol.plan, nodes=topology.nodes
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
    # run — 151 rounds, 3659 bits, busiest link-round 12 = B.
    prediction = _fresh_prediction(spec)
    assert prediction.rounds == result.measured_rounds == 151
    assert prediction.total_bits == result.total_bits == 3659
    assert prediction.max_edge_bits_per_round == 12 == prediction.environment["B"]
    assert result.cost_model["exact_match"] is True
    # The closed form is fully symbolic: every symbol is a structural
    # parameter, so the "constant" is not fitted anywhere.
    assert set(prediction.total_bits_expr.free_symbols()) <= set(
        prediction.environment
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
    spec = ScenarioSpec(
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
    compiled = execute_scenario(spec)
    assert compiled.cost_model["exact_match"] is True, compiled.cost_model
    generator = execute_scenario(spec.with_(engine="generator"))
    assert compiled.total_bits == generator.total_bits == 8496
    assert compiled.measured_rounds == generator.measured_rounds == 36
    assert (
        compiled.cost_model["measured"] == generator.cost_model["measured"]
    )
