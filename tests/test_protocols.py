"""Tests for the distributed protocols: set intersection, trivial routing
and the full FAQ protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Planner, assign_round_robin, assign_single_player
from repro.faq import FAQQuery, bcq, marginal_query, scalar_value, solve_naive
from repro.hypergraph import Hypergraph
from repro.network import Topology
from repro.protocols import (
    ENGINES,
    EOS_BITS,
    run_distributed_faq,
    run_set_intersection,
)
from repro.semiring import COUNTING, REAL, Factor
from repro.workloads import domains_for, random_instance


# ---------------------------------------------------------------------------
# Set intersection (Theorem 3.11)
# ---------------------------------------------------------------------------


def test_set_intersection_correctness_line():
    g = Topology.line(4)
    n = 16
    vectors = {
        "P0": [i % 2 == 0 for i in range(n)],
        "P1": [i % 3 == 0 for i in range(n)],
        "P2": [True] * n,
        "P3": [i < 12 for i in range(n)],
    }
    expected = [
        all(vectors[p][i] for p in vectors) for i in range(n)
    ]
    answer, res = run_set_intersection(g, vectors, "P3")
    assert answer == expected
    assert res.rounds >= n  # line: single tree, one slot per round


def test_set_intersection_clique_parallelizes():
    """Example 2.3 shape: the clique's packing beats the line's."""
    n = 60
    vectors = {f"P{i}": [True] * n for i in range(4)}
    line_rounds = run_set_intersection(Topology.line(4), vectors, "P1")[1].rounds
    clique_rounds = run_set_intersection(Topology.clique(4), vectors, "P1")[1].rounds
    assert clique_rounds < line_rounds


def test_set_intersection_empty_vectors():
    g = Topology.line(2)
    answer, res = run_set_intersection(g, {"P0": [], "P1": []}, "P1")
    assert answer == []
    assert res.rounds == 0


def test_set_intersection_length_mismatch():
    g = Topology.line(2)
    with pytest.raises(ValueError):
        run_set_intersection(g, {"P0": [True], "P1": [True, False]}, "P1")


def test_set_intersection_fixed_diameter():
    g = Topology.clique(4)
    vectors = {f"P{i}": [True] * 20 for i in range(4)}
    answer, _res = run_set_intersection(g, vectors, "P0", max_diameter=2)
    assert all(answer)


# ---------------------------------------------------------------------------
# Trivial protocol (Lemma 3.1): the FAQ protocol's final phase
# ---------------------------------------------------------------------------


def _pure_core_join(rows):
    """A triangle (cyclic, so the whole query is the core: no star
    phases) whose every tuple is in the join, with distinct counting
    annotations, so the answer pins every routed tuple and value."""
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C")})
    factors = {
        name: Factor(
            schema, {(i, i): offset + i for i in range(rows)}, COUNTING, name
        )
        for offset, (name, schema) in enumerate(
            [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))], 1
        )
    }
    return FAQQuery(
        h, factors, domains_for(h, rows), free_vars=("A", "B", "C"),
        semiring=COUNTING,
    )


def _final_phase_runs(query, assignment):
    """The FAQ protocol on ``line(4)`` towards P3, once per engine."""
    runs = [
        run_distributed_faq(
            query, Topology.line(4), assignment, output_player="P3",
            engine=engine,
        )
        for engine in ENGINES
    ]
    reference = solve_naive(query)
    for rep in runs:
        assert rep.num_star_phases == 0
        assert rep.answer == reference
        assert (rep.rounds, rep.simulation.bits_per_edge) == (
            runs[0].rounds, runs[0].simulation.bits_per_edge
        )
    return runs


def test_trivial_protocol_reassembles_relations():
    query = _pure_core_join(5)
    runs = _final_phase_runs(query, {"R": "P0", "S": "P1", "T": "P3"})
    plan = runs[0].plan
    item_bits = plan.tuple_bits + plan.value_bits
    bits_per_edge = runs[0].simulation.bits_per_edge
    # R's five tuples (and their values) leave P0; T is the sink's own.
    assert bits_per_edge[("P0", "P1")] == 5 * item_bits + EOS_BITS
    assert ("P3", "P2") not in bits_per_edge


def test_trivial_protocol_round_shape_on_line():
    """Rounds ~ shipped frames + distance on a line (mincut 1)."""
    query = _pure_core_join(10)
    runs = _final_phase_runs(query, {"R": "P0", "S": "P0", "T": "P0"})
    plan = runs[0].plan
    item_bits = plan.tuple_bits + plan.value_bits
    frames = -(-3 * 10 * item_bits // plan.capacity_bits)
    distance = Topology.line(4).distance("P0", "P3")
    for rep in runs:
        assert frames <= rep.rounds <= frames + 2 * distance + EOS_BITS


# ---------------------------------------------------------------------------
# Distributed FAQ protocol
# ---------------------------------------------------------------------------


def fig1_star():
    return Hypergraph(
        {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D"), "U": ("A", "E")}
    )


def test_distributed_bcq_star_line_matches_naive():
    h = fig1_star()
    factors, domains = random_instance(h, 20, 15, seed=11)
    q = bcq(h, factors, domains)
    topo = Topology.line(4)
    assignment = {"R": "P0", "S": "P1", "T": "P2", "U": "P3"}
    rep = run_distributed_faq(q, topo, assignment, output_player="P3")
    assert scalar_value(rep.answer) == scalar_value(solve_naive(q))
    assert rep.num_star_phases == 1  # y(H1) = 1


def test_distributed_bcq_all_false_instance():
    h = fig1_star()
    domains = domains_for(h, 10)
    factors = {
        "R": Factor.from_tuples(("A", "B"), [(0, 0)], name="R"),
        "S": Factor.from_tuples(("A", "C"), [(1, 0)], name="S"),
        "T": Factor.from_tuples(("A", "D"), [(0, 0)], name="T"),
        "U": Factor.from_tuples(("A", "E"), [(0, 0)], name="U"),
    }
    q = bcq(h, factors, domains)
    rep = run_distributed_faq(
        q, Topology.line(4), {"R": "P0", "S": "P1", "T": "P2", "U": "P3"}
    )
    assert scalar_value(rep.answer) is False


def test_distributed_counting_join():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 1), (2, 1)], COUNTING, "R"),
        "S": Factor.from_tuples(("B", "C"), [(1, 5), (1, 6)], COUNTING, "S"),
    }
    q = FAQQuery(h, rels, domains_for(h, 8), free_vars=(), semiring=COUNTING)
    rep = run_distributed_faq(
        q, Topology.line(2), {"R": "P0", "S": "P1"}, output_player="P1"
    )
    assert scalar_value(rep.answer) == 4


def test_distributed_pgm_marginal_with_free_vars():
    h = Hypergraph({"f": ("A", "B"), "g": ("B", "C")})
    f = Factor(("A", "B"), {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.9}, REAL, "f")
    g = Factor(("B", "C"), {(0, 0): 0.3, (1, 0): 0.4, (1, 1): 0.6}, REAL, "g")
    q = marginal_query(
        h, {"f": f, "g": g}, domains_for(h, 2), free_vars=("B",), semiring=REAL
    )
    rep = run_distributed_faq(
        q, Topology.line(2), {"f": "P0", "g": "P1"}
    )
    assert rep.answer == solve_naive(q)


def test_distributed_cyclic_core_uses_trivial_phase():
    h = Hypergraph(
        {"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C"), "U": ("C", "D")}
    )
    factors, domains = random_instance(h, 6, 8, seed=3)
    q = bcq(h, factors, domains)
    topo = Topology.ring(4)
    assignment = {"R": "P0", "S": "P1", "T": "P2", "U": "P3"}
    rep = run_distributed_faq(q, topo, assignment, output_player="P0")
    assert scalar_value(rep.answer) == scalar_value(solve_naive(q))
    assert rep.num_star_phases == 0  # pure core: no stars, just routing


def test_distributed_free_var_handled_by_rerooting():
    """A free variable on a forest leaf is fine: the planner re-roots the
    GYO-GHD so the root bag covers it (the Appendix G.5 restriction is on
    the rooted decomposition, which is ours to choose)."""
    h = Hypergraph({"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")})
    factors, domains = random_instance(h, 5, 5, seed=1)
    q = FAQQuery(h, factors, domains, free_vars=("B",))
    rep = run_distributed_faq(
        q, Topology.line(3), {"R": "P0", "S": "P1", "T": "P2"}
    )
    assert rep.answer == solve_naive(q)


def test_distributed_unsupported_free_vars_rejected():
    """Free variables no single bag can host are the genuinely
    unsupported Appendix G.5 case."""
    h = Hypergraph({"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")})
    factors, domains = random_instance(h, 5, 5, seed=1)
    q = FAQQuery(h, factors, domains, free_vars=("B", "C"))
    with pytest.raises(ValueError):
        run_distributed_faq(
            q, Topology.line(3), {"R": "P0", "S": "P1", "T": "P2"}
        )


def test_distributed_incomplete_assignment_rejected():
    h = fig1_star()
    factors, domains = random_instance(h, 5, 5, seed=1)
    q = bcq(h, factors, domains)
    with pytest.raises(ValueError):
        run_distributed_faq(q, Topology.line(4), {"R": "P0"})


def test_distributed_unknown_player_rejected():
    h = fig1_star()
    factors, domains = random_instance(h, 5, 5, seed=1)
    q = bcq(h, factors, domains)
    assignment = {"R": "P9", "S": "P1", "T": "P2", "U": "P3"}
    with pytest.raises(ValueError):
        run_distributed_faq(q, Topology.line(4), assignment)


def test_colocated_assignment_minimizes_rounds():
    h = fig1_star()
    factors, domains = random_instance(h, 16, 12, seed=5)
    q = bcq(h, factors, domains)
    topo = Topology.line(4)
    spread = Planner(
        q, topo, {"R": "P0", "S": "P1", "T": "P2", "U": "P3"}, "P0"
    ).execute()
    together = Planner(q, topo, assign_single_player(q, "P0"), "P0").execute()
    assert spread.correct and together.correct
    assert together.measured_rounds <= spread.measured_rounds


def test_planner_round_robin_default():
    h = fig1_star()
    factors, domains = random_instance(h, 12, 10, seed=9)
    q = bcq(h, factors, domains)
    topo = Topology.clique(4)
    planner = Planner(q, topo)
    assert set(planner.assignment.values()) <= set(topo.nodes)
    report = planner.execute()
    assert report.correct
    assert report.measured_rounds > 0
    assert report.predicted.upper_rounds > 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_distributed_matches_naive_on_random_trees(seed):
    """Property: the distributed protocol agrees with the centralized
    solver on random tree BCQs over random assignments."""
    from repro.workloads import random_tree_query

    h = random_tree_query(4, seed=seed)
    factors, domains = random_instance(h, 5, 6, seed=seed)
    q = bcq(h, factors, domains)
    topo = Topology.line(4)
    assignment = assign_round_robin(q, topo)
    rep = run_distributed_faq(q, topo, assignment)
    assert scalar_value(rep.answer) == scalar_value(solve_naive(q))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 1000))
def test_distributed_counting_on_clique(seed):
    from repro.workloads import random_tree_query

    h = random_tree_query(3, seed=seed)
    factors, domains = random_instance(
        h, 4, 5, seed=seed, semiring=COUNTING
    )
    q = FAQQuery(h, factors, domains, free_vars=(), semiring=COUNTING)
    topo = Topology.clique(4)
    rep = run_distributed_faq(q, topo, assign_round_robin(q, topo))
    assert scalar_value(rep.answer) == scalar_value(solve_naive(q))
