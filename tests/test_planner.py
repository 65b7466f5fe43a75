"""Tests for the planner, assignment policies and the cut-simulation
accounting (Lemma 4.4 executable)."""

import pytest

from repro.core import (
    Planner,
    answer_value,
    assign_round_robin,
    assign_single_player,
    worst_case_assignment,
)
from repro.faq import bcq
from repro.hypergraph import Hypergraph
from repro.lowerbounds import (
    cut_transcript,
    embed_tribes_in_forest,
    hard_tribes,
    implied_round_lower_bound,
    verify_cut_accounting,
)
from repro.network import Topology, mincut
from repro.workloads import random_instance


def star_query(n=24, seed=0):
    h = Hypergraph(
        {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D"), "U": ("A", "E")}
    )
    factors, domains = random_instance(h, 16, n, seed=seed)
    return bcq(h, factors, domains, name="H1")


def test_assign_round_robin_covers_all_edges():
    q = star_query()
    topo = Topology.line(3)
    assignment = assign_round_robin(q, topo)
    assert set(assignment) == set(q.hypergraph.edge_names)
    assert set(assignment.values()) <= set(topo.nodes)


def test_assign_round_robin_restricted_pool():
    q = star_query()
    topo = Topology.line(4)
    assignment = assign_round_robin(q, topo, players=["P0", "P2"])
    assert set(assignment.values()) == {"P0", "P2"}


def test_assign_single_player():
    q = star_query()
    assignment = assign_single_player(q, "P1")
    assert set(assignment.values()) == {"P1"}


def test_worst_case_assignment_splits_cut():
    topo = Topology.line(4)
    h = Hypergraph(
        {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D"), "U": ("A", "E")}
    )
    emb = embed_tribes_in_forest(h, hard_tribes(1, 10, True, seed=0))
    assignment = worst_case_assignment(
        emb.s_edges, emb.t_edges, h.edge_names, topo, topo.nodes
    )
    from repro.network import mincut_partition

    side_a, side_b, _ = mincut_partition(topo, topo.nodes)
    s_side = assignment[emb.s_edges[0]] in side_a
    t_side = assignment[emb.t_edges[0]] in side_a
    assert s_side != t_side  # the pair straddles the cut
    assert set(assignment) == set(h.edge_names)


def test_planner_players_property():
    q = star_query()
    topo = Topology.line(4)
    planner = Planner(q, topo, assign_single_player(q, "P2"))
    assert planner.players == ["P2"]


def test_planner_colocated_prediction_trivial():
    q = star_query()
    planner = Planner(q, Topology.line(3), assign_single_player(q, "P0"), "P0")
    pred = planner.predict()
    assert pred.upper_rounds == 0.0
    report = planner.execute()
    assert report.correct
    assert report.measured_rounds == 0


def test_planner_execute_reports_consistent_fields():
    q = star_query()
    topo = Topology.clique(4)
    report = Planner(q, topo).execute()
    assert report.correct
    assert report.answer == report.reference
    assert report.measured_rounds == report.protocol.rounds
    assert report.measured_gap > 0
    assert answer_value(report) in (True, False)


# ---------------------------------------------------------------------------
# Cut simulation (Lemma 4.4, executable accounting)
# ---------------------------------------------------------------------------


def test_cut_transcript_accounting_on_real_run():
    q = star_query(n=32, seed=3)
    topo = Topology.line(4)
    planner = Planner(q, topo)
    report = planner.execute()
    transcript = cut_transcript(topo, planner.players, report.protocol.simulation)
    assert transcript.cut_size == 1  # a line's min cut
    verify_cut_accounting(transcript, report.protocol.plan.capacity_bits)
    # The induced two-party protocol carries all cut-crossing bits.
    assert transcript.bits_crossing > 0
    assert transcript.two_party_bits_with_addressing() >= transcript.bits_crossing


def test_cut_transcript_on_clique():
    q = star_query(n=32, seed=4)
    topo = Topology.clique(4)
    planner = Planner(q, topo)
    report = planner.execute()
    transcript = cut_transcript(topo, planner.players, report.protocol.simulation)
    assert transcript.cut_size == mincut(topo, planner.players)
    verify_cut_accounting(transcript, report.protocol.plan.capacity_bits)


def test_implied_round_lower_bound_inequality():
    """Inequality (1): rounds >= two-party bits / (cut * B * log cut),
    where the two-party bits are what actually crossed the cut one way
    (``B`` is a per-direction budget: both ways may carry it at once)."""
    q = star_query(n=48, seed=5)
    topo = Topology.line(4)
    planner = Planner(q, topo)
    report = planner.execute()
    transcript = cut_transcript(topo, planner.players, report.protocol.simulation)
    capacity = report.protocol.plan.capacity_bits
    implied = implied_round_lower_bound(
        topo, planner.players, transcript.busiest_way(), capacity
    )
    assert report.measured_rounds >= implied - 1e-9


def test_cut_transcript_rounds_match_simulation():
    q = star_query(n=16, seed=6)
    topo = Topology.ring(4)
    planner = Planner(q, topo)
    report = planner.execute()
    transcript = cut_transcript(topo, planner.players, report.protocol.simulation)
    assert transcript.rounds == report.measured_rounds
    assert set(transcript.side_a) | set(transcript.side_b) == set(topo.nodes)
