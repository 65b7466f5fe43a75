"""Tests for TRIBES and the lower-bound embeddings (Lemmas 4.3/4.4,
Theorems 4.4/F.8)."""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faq import bcq, scalar_value, solve_naive
from repro.hypergraph import Hypergraph
from repro.lab.generate import generate_scenarios
from repro.lowerbounds import (
    TribesInstance,
    bcq_bounds,
    core_embedding_capacity,
    embed_tribes_in_core,
    embed_tribes_in_forest,
    embed_tribes_in_hypergraph,
    embedding_capacity,
    faq_bounds,
    find_disjoint_cycles,
    greedy_independent_set,
    hard_tribes,
    random_tribes,
    strong_independent_set,
    structure_parameters,
    table1_gap_budget,
    tribes_round_lower_bound,
)
from repro.lowerbounds.forest_embedding import _planted_factor
from repro.network import Topology
from repro.pipeline import build_query
from repro.semiring import BOOLEAN, ColumnarFactor, Factor

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "topologies.json")


# ---------------------------------------------------------------------------
# TRIBES
# ---------------------------------------------------------------------------


def test_tribes_evaluation():
    inst = TribesInstance(
        4,
        (
            (frozenset({1}), frozenset({1, 2})),
            (frozenset({0}), frozenset({0})),
        ),
    )
    assert inst.disj(0) and inst.disj(1)
    assert inst.evaluate() is True
    inst2 = TribesInstance(4, ((frozenset({1}), frozenset({2})),))
    assert inst2.evaluate() is False


def test_hard_tribes_value_and_intersection_size():
    for value in (True, False):
        inst = hard_tribes(4, 10, value, seed=2)
        assert inst.evaluate() == value
        for s, t in inst.pairs:
            assert len(s & t) <= 1  # Remark G.5


def test_hard_tribes_checks_its_planted_value_under_python_O():
    # The certification plane trusts the planted instance, so the value
    # check must survive ``python -O``: a construction that plants the
    # wrong value (forced here through ``evaluate``) raises by name.
    code = (
        "from repro.lowerbounds import tribes\n"
        "tribes.TribesInstance.evaluate = lambda self: False\n"
        "try:\n"
        "    tribes.hard_tribes(3, 4, True, seed=1)\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == (
        "planted hard TRIBES instance (m=3, N=4) evaluates to False, "
        "not the requested True"
    )


def test_random_tribes_deterministic_seed():
    a = random_tribes(3, 8, seed=5)
    b = random_tribes(3, 8, seed=5)
    assert a == b


def test_lower_bound_formulas():
    inst = random_tribes(3, 100, seed=1)
    assert inst.lower_bound_rounds() == 300.0
    assert tribes_round_lower_bound(3, 100, 1) == 300.0
    assert tribes_round_lower_bound(3, 100, 4) == 300 / (4 * 2)
    with pytest.raises(ValueError):
        tribes_round_lower_bound(3, 100, 0)


# ---------------------------------------------------------------------------
# Forest embedding (Lemma 4.3)
# ---------------------------------------------------------------------------


def star_h():
    return Hypergraph(
        {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D"), "U": ("A", "E")}
    )


def test_forest_embedding_star_structure():
    tr = hard_tribes(1, 8, True, seed=0)
    emb = embed_tribes_in_forest(star_h(), tr)
    assert emb.o_nodes == ("A",)
    assert len(emb.factors) == 4
    assert emb.s_edges[0] != emb.t_edges[0]


def test_forest_embedding_capacity_examples():
    assert embedding_capacity(star_h()) == 1
    # A path v0-v1-...-v6 has internal vertices on both sides; the larger
    # bipartition class of degree-2 vertices is chosen.
    assert embedding_capacity(Hypergraph.path(6)) == 3


def test_forest_embedding_rejects_cyclic():
    with pytest.raises(ValueError):
        embed_tribes_in_forest(Hypergraph.cycle(4), hard_tribes(1, 4, True))


def test_forest_embedding_rejects_oversized():
    with pytest.raises(ValueError):
        embed_tribes_in_forest(star_h(), hard_tribes(2, 4, True))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_forest_embedding_equivalence_property(seed, value):
    """The machine-checked heart of Lemma 4.3: BCQ == TRIBES."""
    h = Hypergraph.path(6)
    m = embedding_capacity(h)
    tr = hard_tribes(m, 6, value, seed=seed)
    emb = embed_tribes_in_forest(h, tr)
    q = bcq(emb.hypergraph, emb.factors, emb.domains)
    assert scalar_value(solve_naive(q)) == value


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_forest_embedding_random_tribes_property(seed):
    h = Hypergraph.path(6)
    m = embedding_capacity(h)
    tr = random_tribes(m, 5, seed=seed)
    emb = embed_tribes_in_forest(h, tr)
    q = bcq(emb.hypergraph, emb.factors, emb.domains)
    assert scalar_value(solve_naive(q)) == tr.evaluate()


def _same_listing(built, expected):
    """Equal as listings: schema, row *order*, annotations and name —
    and, columnar, the codes, dictionaries and values ``from_factor``
    gives the expected listing."""
    encoded = ColumnarFactor.from_factor(expected)
    return (
        built.schema == expected.schema
        and list(built.rows.items()) == list(expected.rows.items())
        and built.semiring is expected.semiring
        and built.name == expected.name
        and type(built) is ColumnarFactor
        and built.dictionaries == encoded.dictionaries
        and all(map(np.array_equal, built.codes, encoded.codes))
        and np.array_equal(built.values, encoded.values)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 40), max_size=30, unique=True).map(sorted),
    st.sampled_from([(("A",), "A"), (("A", "B"), "A"), (("A", "B"), "B")]),
    st.integers(0, 3),
)
def test_planted_factor_equals_from_tuples(values, shape, filler):
    """The direct columnar build makes no row tuples and encodes
    nothing; it must still be the factor ``Factor.__init__``'s per-row
    loop produces, encoded — on sorted, distinct value lists like the
    embedding's (empty, the filler among them)."""
    schema, free_var = shape
    idx = schema.index(free_var)
    tuples = [
        tuple(value if i == idx else filler for i in range(len(schema)))
        for value in values
    ]
    assert _same_listing(
        _planted_factor(schema, free_var, values, filler, "R"),
        Factor.from_tuples(schema, tuples, BOOLEAN, "R"),
    )


@pytest.mark.parametrize("values", [[2, 1], [1, 1], [0, 3, 3, 5]])
def test_planted_factor_refuses_unsorted_values(values):
    with pytest.raises(ValueError, match="not sorted and distinct"):
        _planted_factor(("A", "B"), "A", values, 1, "R")


def test_forest_embedding_of_a_one_element_universe():
    # n == 1: the filler value 1 lies outside [N] = {0} and joins the
    # domain, so the planted {0} x {1} relations still validate.
    tr = TribesInstance(1, ((frozenset({0}), frozenset({0})),))
    emb = embed_tribes_in_forest(star_h(), tr)
    assert set(emb.domains.values()) == {(0, 1)}
    for name, factor in emb.factors.items():
        o = factor.schema.index("A")
        row = tuple(0 if i == o else 1 for i in range(2))
        assert _same_listing(
            factor, Factor.from_tuples(factor.schema, [row], BOOLEAN, name)
        )
    q = bcq(emb.hypergraph, emb.factors, emb.domains)
    assert scalar_value(solve_naive(q)) is True


# ---------------------------------------------------------------------------
# Core embedding (Theorem 4.4)
# ---------------------------------------------------------------------------


def test_find_disjoint_cycles():
    h = Hypergraph.cycle(6)
    cycles = find_disjoint_cycles(h)
    assert len(cycles) == 1
    assert len(cycles[0]) == 6


def test_greedy_independent_set_on_cycle():
    h = Hypergraph.cycle(6)
    ind = greedy_independent_set(h)
    assert len(ind) >= 2
    for u in ind:
        for v in ind:
            if u != v:
                assert v not in h.neighbors(u)


def test_core_capacity_modes():
    mode, cap = core_embedding_capacity(Hypergraph.cycle(8))
    assert cap >= 1
    assert mode in ("cycles", "independent-set")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_core_embedding_equivalence_property(seed, value):
    """Theorem 4.4's reduction, machine-checked on a cycle query."""
    h = Hypergraph.cycle(5)
    _mode, cap = core_embedding_capacity(h)
    tr = hard_tribes(min(1, cap), 16, value, seed=seed)  # 16 = 4² for cycles
    emb = embed_tribes_in_core(h, tr)
    q = bcq(emb.hypergraph, emb.factors, emb.domains)
    assert scalar_value(solve_naive(q)) == value


def test_cycle_embedding_needs_square_universe():
    h = Hypergraph.cycle(5)
    # Force cycle mode by requesting it directly.
    from repro.lowerbounds.core_embedding import _embed_on_cycles

    with pytest.raises(ValueError):
        _embed_on_cycles(h, hard_tribes(1, 15, True, seed=0))


def test_cycle_mode_equivalence():
    from repro.lowerbounds.core_embedding import _embed_on_cycles

    h = Hypergraph.cycle(6)
    for seed in range(4):
        for value in (True, False):
            tr = hard_tribes(1, 9, value, seed=seed)
            emb = _embed_on_cycles(h, tr)
            q = bcq(emb.hypergraph, emb.factors, emb.domains)
            assert scalar_value(solve_naive(q)) == value


# ---------------------------------------------------------------------------
# Hypergraph embedding (Theorem F.8)
# ---------------------------------------------------------------------------


def test_strong_independent_set_no_shared_edge():
    h = Hypergraph(
        {
            "E0": ("a", "b", "c"),
            "E1": ("c", "d", "e"),
            "E2": ("e", "f", "g"),
            "E3": ("b", "h", "i"),
        }
    )
    sis = strong_independent_set(h)
    for u in sis:
        for v in sis:
            if u != v:
                shared = h.incident_edges(u) & h.incident_edges(v)
                assert not shared


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_hypergraph_embedding_equivalence_property(seed, value):
    from repro.workloads import random_acyclic_hypergraph

    h = random_acyclic_hypergraph(6, 3, seed=seed % 50)
    cap = len(strong_independent_set(h))
    if cap == 0:
        return
    tr = hard_tribes(min(cap, 2), 7, value, seed=seed)
    emb = embed_tribes_in_hypergraph(h, tr)
    q = bcq(emb.hypergraph, emb.factors, emb.domains)
    assert scalar_value(solve_naive(q)) == value


# ---------------------------------------------------------------------------
# Bound formulas (Table 1 machinery)
# ---------------------------------------------------------------------------


def test_structure_parameters_star():
    params = structure_parameters(star_h())
    assert params["y"] == 1.0
    assert params["r"] == 2.0
    assert params["d"] == 1.0
    assert params["acyclic"] == 1.0


def test_bcq_bounds_line_scale_linearly_in_n():
    h = star_h()
    g = Topology.line(4)
    players = g.nodes
    b1 = bcq_bounds(h, g, players, 100)
    b2 = bcq_bounds(h, g, players, 200)
    assert b2.lower_rounds == 2 * b1.lower_rounds
    assert b2.upper_rounds > b1.upper_rounds
    assert 1 <= b1.gap < 50  # Õ(1) row: constant-ish gap


def test_bcq_bounds_clique_smaller_than_line():
    h = star_h()
    n = 200
    line = bcq_bounds(h, Topology.line(4), Topology.line(4).nodes, n)
    clique = bcq_bounds(h, Topology.clique(4), Topology.clique(4).nodes, n)
    assert clique.upper_rounds < line.upper_rounds
    assert clique.lower_rounds <= line.lower_rounds


def test_faq_bounds_divide_by_dr():
    h = star_h()
    g = Topology.line(4)
    b = bcq_bounds(h, g, g.nodes, 100)
    fb = faq_bounds(h, g, g.nodes, 100)
    assert fb.lower_rounds == pytest.approx(b.lower_rounds / 2)  # d=1, r=2


def test_table1_gap_budget():
    assert table1_gap_budget("faq-line", 3, 4) == 1.0
    assert table1_gap_budget("bcq-degenerate", 3, 2) == 3.0
    assert table1_gap_budget("faq-hypergraph", 3, 4) == 9 * 16
    assert table1_gap_budget("mcm", 1, 1) == 1.0
    with pytest.raises(ValueError):
        table1_gap_budget("unknown", 1, 1)


def test_bound_report_gap_infinite_when_lower_zero():
    from repro.lowerbounds.bounds import BoundReport

    assert BoundReport(10.0, 0.0, {}).gap == float("inf")


# ---------------------------------------------------------------------------
# Direct unit tests for internals previously only covered transitively
# ---------------------------------------------------------------------------


def test_find_disjoint_cycles_harvests_disjoint_triangles():
    two_triangles = Hypergraph({
        "A": ("a1", "a2"), "B": ("a2", "a3"), "C": ("a3", "a1"),
        "D": ("b1", "b2"), "E": ("b2", "b3"), "F": ("b3", "b1"),
    })
    cycles = find_disjoint_cycles(two_triangles)
    assert len(cycles) == 2
    assert sorted(sorted(c) for c in cycles) == [
        ["a1", "a2", "a3"], ["b1", "b2", "b3"],
    ]


def test_find_disjoint_cycles_empty_on_forest():
    assert find_disjoint_cycles(Hypergraph.path(4)) == []


def test_find_disjoint_cycles_single_long_cycle():
    c5 = Hypergraph({f"E{i}": (f"v{i}", f"v{(i + 1) % 5}") for i in range(5)})
    (cycle,) = find_disjoint_cycles(c5)
    assert sorted(cycle) == [f"v{i}" for i in range(5)]


#: ``generate_scenarios(master, count)`` whose arity-2 hypergraphs
#: ``tests/golden/topologies.json`` holds both harvests of, written
#: through networkx 3.6.1 (``Graph`` edits, ``nx.shortest_path``) on a
#: graph whose vertices went in sorted by ``str``.
HARVEST_MASTERS = ((20190625, 100), (777, 100))


def harvest_hypergraphs():
    """``(key, hypergraph)`` for every spec with a simple-graph query."""
    for master, count in HARVEST_MASTERS:
        for index, spec in enumerate(generate_scenarios(master, count)):
            hypergraph = build_query(spec).query.hypergraph
            if hypergraph.arity <= 2:
                yield f"{master}#{index} {spec.query}", hypergraph


def golden_harvest():
    return {
        key: {
            "cycles": find_disjoint_cycles(hypergraph),
            "independent": greedy_independent_set(hypergraph),
        }
        for key, hypergraph in harvest_hypergraphs()
    }


def test_core_harvests_match_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["core_harvest"]
    assert golden_harvest() == golden
    assert sum(1 for record in golden.values() if record["cycles"]) >= 20


def random_simple_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.sample(pairs, rng.randint(2, min(len(pairs), 2 * n)))
    return Hypergraph({
        f"E{k}": (f"v{i}", f"v{j}") for k, (i, j) in enumerate(chosen)
    })


def is_forest(vertices, pairs):
    leader = {v: v for v in vertices}

    def find(v):
        while leader[v] != v:
            leader[v] = v = leader[leader[v]]
        return v

    for pair in pairs:
        u, v = map(find, pair)
        if u == v:
            return False
        leader[u] = v
    return True


def test_harvested_cycles_are_vertex_disjoint_cycles_of_h():
    hypergraphs = [h for _key, h in harvest_hypergraphs()]
    hypergraphs += [random_simple_graph(seed) for seed in range(200)]
    cyclic = 0
    for h in hypergraphs:
        edges = {verts for _name, verts in h.edges()}
        used = set()
        cycles = find_disjoint_cycles(h)
        cyclic += bool(cycles)
        for cycle in cycles:
            assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
            assert not used & set(cycle)
            used |= set(cycle)
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                assert frozenset((u, v)) in edges
        # Nothing cyclic is left once the harvested vertices are gone.
        assert is_forest(
            h.vertices, {e for e in edges if len(e) == 2 and not e & used}
        )
    assert cyclic >= 100


def test_forest_embedding_capacity_hand_cases():
    """|O| on hand graphs: the larger bipartition class of internal
    (degree >= 2) vertices."""
    assert embedding_capacity(Hypergraph.star(3)) == 1   # the center
    assert embedding_capacity(Hypergraph.path(2)) == 1   # one internal node
    assert embedding_capacity(Hypergraph.path(4)) == 2
    assert embedding_capacity(Hypergraph.path(5)) == 2
    # A disjoint union sums the per-tree capacities.
    forest = Hypergraph({
        "A": ("x0", "x1"), "B": ("x1", "x2"),
        "C": ("y0", "y1"), "D": ("y1", "y2"),
    })
    assert embedding_capacity(forest) == 2


def test_verify_cut_accounting_hand_cases():
    from repro.lowerbounds import CutTranscript, verify_cut_accounting

    def transcript(bits_each_way):
        return CutTranscript(
            side_a={"u"}, side_b={"v"}, crossing_edges=(("u", "v"),),
            bits_each_way=bits_each_way, rounds=10, cut_size=1,
        )

    # The budget is 10 rounds * 1 edge * 1 bit = 10 bits each way.
    verify_cut_accounting(transcript((10, 0)), capacity_bits=1)
    # Both ways at once, each within its own budget: 20 bits in all.
    both = transcript((10, 10))
    assert (both.bits_crossing, both.busiest_way()) == (20, 10)
    verify_cut_accounting(both, capacity_bits=1)
    for impossible in ((11, 0), (0, 11), (11, 9)):
        with pytest.raises(AssertionError):
            verify_cut_accounting(transcript(impossible), capacity_bits=1)


def test_cut_transcript_two_party_addressing():
    from repro.lowerbounds import CutTranscript

    transcript = CutTranscript(
        side_a={"u"}, side_b={"v", "w"},
        crossing_edges=(("u", "v"), ("u", "w"), ("u", "x"), ("u", "y")),
        bits_each_way=(60, 40), rounds=50, cut_size=4,
    )
    # ceil(log2 4) = 2 address bits per crossing bit.
    assert transcript.two_party_bits_with_addressing() == 200
    # R >= bits / (cut * capacity * log cut)
    assert transcript.round_lower_bound(200.0, capacity_bits=1) == 25.0


def test_implied_round_lower_bound_hand_cases():
    from repro.lowerbounds import implied_round_lower_bound

    line = Topology.line(2)
    # cut = 1, ceil(log2 2) = 1: the bound is just bits / capacity.
    assert implied_round_lower_bound(line, line.nodes, 100.0, 1) == 100.0
    clique = Topology.clique(5)
    # cut = 4, address = 2: 600 / (4 * 1 * 2).
    assert implied_round_lower_bound(clique, clique.nodes, 600.0, 1) == 75.0


def test_cut_transcript_from_real_run():
    """The extracted transcript is consistent with the run's accounting."""
    from repro.lab import ScenarioSpec
    from repro.pipeline import build_query, build_topology
    from repro.core import Planner
    from repro.lowerbounds import cut_transcript, verify_cut_accounting

    spec = ScenarioSpec(
        family="cut", query="tree", query_params={"edges": 3},
        topology="line", topology_params={"n": 3}, n=8, seed=9,
    )
    built = build_query(spec)
    topology = build_topology(spec)
    planner = Planner(built.query, topology)
    report = planner.execute()
    transcript = cut_transcript(
        topology, planner.players, report.protocol.simulation
    )
    capacity = report.protocol.plan.capacity_bits
    verify_cut_accounting(transcript, capacity)
    assert transcript.rounds == report.measured_rounds
    assert transcript.cut_size >= 1
    assert 0 <= transcript.bits_crossing <= report.total_bits
    links = report.protocol.simulation.bits_per_edge
    side_a, side_b = transcript.side_a, transcript.side_b
    assert transcript.bits_each_way == (
        sum(b for (u, v), b in links.items() if u in side_a and v in side_b),
        sum(b for (u, v), b in links.items() if u in side_b and v in side_a),
    )


# ---------------------------------------------------------------------------
# Edge cases surfaced by fuzzing (regression pins)
# ---------------------------------------------------------------------------


def test_bound_report_gap_one_when_both_bounds_zero():
    """Zero-bit scenarios (co-located runs): 0/0 is vacuous agreement,
    not an infinite gap."""
    from repro.lowerbounds.bounds import BoundReport

    assert BoundReport(0.0, 0.0, {}).gap == 1.0


def test_bcq_bounds_single_player_is_zero_bit():
    """One player (however large the topology) means no communication:
    both bounds are 0 and the structure parameters survive."""
    report = bcq_bounds(Hypergraph.star(3), Topology.line(4), ["p1"], 16)
    assert report.upper_rounds == 0.0
    assert report.lower_rounds == 0.0
    assert report.gap == 1.0
    assert report.components["co_located"] == 1.0
    assert report.components["d"] >= 1.0
    # Duplicate names of one player count as one terminal.
    dup = bcq_bounds(Hypergraph.star(3), Topology.line(4), ["p1", "p1"], 16)
    assert dup.lower_rounds == 0.0


def test_faq_bounds_single_player_is_zero_bit():
    report = faq_bounds(Hypergraph.star(3), Topology.line(4), ["p0"], 16)
    assert report.upper_rounds == 0.0
    assert report.lower_rounds == 0.0
    assert report.gap == 1.0


def test_table1_gap_budget_clamps_degenerate_structure():
    """d = 0 / r = 0 reports must never yield a zero budget."""
    assert table1_gap_budget("bcq-degenerate", 0, 1) == 1.0
    assert table1_gap_budget("faq-hypergraph", 0, 0) == 1.0
    assert table1_gap_budget("faq-hypergraph", 0.5, 3) == 9.0
