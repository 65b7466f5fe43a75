"""End-to-end integration tests: the whole pipeline on realistic scenarios.

Each test runs query construction -> decomposition -> bound prediction ->
protocol compilation -> simulation -> answer verification, the way a
downstream user would chain the public API.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    COUNTING,
    REAL,
    FAQQuery,
    Planner,
    Topology,
    bcq,
    internal_node_width,
    scalar_value,
)
from repro.core import assign_round_robin
from repro.faq import marginal_query, solve_naive
from repro.lowerbounds import (
    cut_transcript,
    embed_tribes_in_forest,
    embedding_capacity,
    hard_tribes,
    table1_gap_budget,
    verify_cut_accounting,
)
from repro.lowerbounds.bounds import TABLE1_POLYLOG_ALLOWANCE
from repro.pgm import chain_model, tree_model
from repro.workloads import (
    domains_for,
    random_acyclic_hypergraph,
    random_instance,
    random_tree_query,
)


def test_full_pipeline_pgm_on_grid_topology():
    """Tree PGM marginal computed distributed on a 2x3 grid network."""
    model = tree_model(2, 2, 2, seed=11)
    query = model.marginal_query(("X0",))
    topo = Topology.grid(2, 3)
    planner = Planner(query, topo)
    report = planner.execute()
    assert report.correct
    got = {t: v for t, v in report.answer}
    expected = {t: v for t, v in solve_naive(query)}
    assert set(got) == set(expected)
    for t in got:
        assert math.isclose(got[t], expected[t], rel_tol=1e-9)


def test_full_pipeline_chain_pgm_on_matching_line():
    """A chain PGM on a line whose shape matches the chain (the sensor
    scenario): round cost scales with chain length, answers exact."""
    rounds = []
    for length in (3, 5):
        model = chain_model(length, 2, seed=length)
        query = model.marginal_query(("X0",))
        topo = Topology.line(length)
        report = Planner(query, topo).execute()
        assert report.correct
        rounds.append(report.measured_rounds)
    assert rounds[1] > rounds[0]


def test_full_pipeline_hard_instance_table_row():
    """The complete Table-1 row flow on a fresh hard instance."""
    h = random_tree_query(4, seed=21)
    m = embedding_capacity(h)
    if m == 0:
        pytest.skip("degenerate random tree")
    tribes = hard_tribes(m, 32, True, seed=21)
    emb = embed_tribes_in_forest(h, tribes)
    query = bcq(h, emb.factors, emb.domains)
    report = Planner(query, Topology.ring(4)).execute()
    assert report.correct
    budget = table1_gap_budget("faq-arbitrary", 1.0, 2.0)
    assert report.measured_gap <= TABLE1_POLYLOG_ALLOWANCE * budget


def test_full_pipeline_cut_accounting_everywhere():
    """Every protocol run satisfies the Lemma 4.4 cut budget, across a
    topology zoo."""
    h = random_tree_query(4, seed=31)
    factors, domains = random_instance(h, 8, 12, seed=31)
    query = bcq(h, factors, domains)
    for topo in (Topology.line(4), Topology.ring(5), Topology.clique(4),
                 Topology.barbell(3, 1)):
        planner = Planner(query, topo)
        report = planner.execute()
        assert report.correct, topo.name
        if len(planner.players) < 2:
            continue
        transcript = cut_transcript(
            topo, planner.players, report.protocol.simulation
        )
        verify_cut_accounting(transcript, report.protocol.plan.capacity_bits)


def test_width_report_consistent_with_protocol():
    """y(H) from the width module equals the star-phase count the
    compiled protocol actually executes (acyclic connected H)."""
    for seed in (1, 5, 9):
        h = random_tree_query(5, seed=seed)
        factors, domains = random_instance(h, 6, 8, seed=seed)
        query = bcq(h, factors, domains)
        y = internal_node_width(h)
        topo = Topology.line(5)
        report = Planner(query, topo).execute()
        assert report.correct
        assert report.protocol.num_star_phases == y


def test_counting_and_boolean_agree_on_emptiness():
    """|join| > 0 iff BCQ true — cross-semiring integration."""
    h = random_acyclic_hypergraph(4, 3, seed=13)
    bool_factors, domains = random_instance(h, 5, 6, seed=13)
    count_factors = {
        name: f.with_semiring(COUNTING) for name, f in bool_factors.items()
    }
    q_bool = bcq(h, bool_factors, domains)
    q_count = FAQQuery(h, count_factors, domains, semiring=COUNTING)
    topo = Topology.clique(4)
    b = Planner(q_bool, topo).execute()
    c = Planner(q_count, topo).execute()
    assert b.correct and c.correct
    assert (scalar_value(c.answer) > 0) == scalar_value(b.answer)


def test_weighted_marginal_distributed_matches_centralized():
    h = random_tree_query(3, seed=17)
    factors, domains = random_instance(
        h, 4, 6, seed=17, semiring=REAL, weighted=True
    )
    root_edge = sorted(h.edge_names)[0]
    # Free variables = the core bag attributes (Appendix G.5 restriction).
    from repro.hypergraph import decompose

    core_vars = tuple(sorted(decompose(h).core_vertices, key=str))
    query = marginal_query(h, factors, domains, core_vars, REAL)
    topo = Topology.line(3)
    report = Planner(query, topo).execute()
    assert report.correct
    del root_edge


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000))
def test_pipeline_property_random_everything(seed):
    """Random query, random topology choice, round-robin assignment:
    the distributed answer always matches the centralized one."""
    h = random_tree_query(3 + seed % 3, seed=seed)
    factors, domains = random_instance(h, 4, 5, seed=seed)
    query = bcq(h, factors, domains)
    topos = [Topology.line(4), Topology.ring(4), Topology.clique(4)]
    topo = topos[seed % 3]
    report = Planner(query, topo, assign_round_robin(query, topo)).execute()
    assert report.correct
