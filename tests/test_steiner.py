"""The greedy Steiner packer, pinned tree for tree.

``tests/golden/steiner_packings.json`` holds the packing — the edges of
every tree, in packing order — at each Δ of the Theorem 3.11 scan on
the paper's small topologies and on the 64-node expander the ledger's
``wide-expander`` workload plans over, plus ``optimize_delta``'s
choice.  It was written by the from-scratch networkx packer (one greedy
run per Δ); any packer that shares work across Δ has to reproduce it
(regenerate: ``tests/golden/README.md``).
"""

import json
import os
import random

import networkx as nx
import pytest

from repro.core.memo import clear_all_memos
from repro.network import Topology
from repro.network.steiner import (
    SteinerTree,
    _candidate_trees,
    _expand_state,
    _mehlhorn_tree,
    find_steiner_tree,
    optimize_delta,
    pack_steiner_trees,
    scan_steiner_packings,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "steiner_packings.json"
)

#: The terminal sets ``wide-expander`` packs over: one per star of its
#: plan, and their union.
_WIDE_TERMINALS = (
    ("P10", "P12", "P13"),
    ("P0", "P1", "P10", "P11", "P14", "P15"),
    ("P0", "P1", "P10", "P11", "P12", "P13", "P14", "P15"),
)

#: ``name -> (topology, terminals or None for every node)``.
CASES = {
    "line5": (Topology.line(5), None),
    "ring8": (Topology.ring(8), None),
    "clique6": (Topology.clique(6), None),
    "clique6-pair": (Topology.clique(6), ("P0", "P5")),
    "grid3x4": (Topology.grid(3, 4), None),
    "grid3x4-corners": (
        Topology.grid(3, 4), ("P0_0", "P0_3", "P2_0", "P2_3")
    ),
    "hypercube4": (Topology.hypercube(4), None),
    "hypercube4-K5": (Topology.hypercube(4), ("P0", "P3", "P5", "P10", "P15")),
    "barbell4_2": (Topology.barbell(4, 2), None),
    "barbell4_2-ends": (Topology.barbell(4, 2), ("L3", "R3")),
    "tree2_3": (Topology.balanced_tree(2, 3), None),
    **{
        f"expander64-K{len(terminals)}": (
            Topology.expander(64, 4, seed=1), terminals
        )
        for terminals in _WIDE_TERMINALS
    },
}

#: ``total_words`` values ``optimize_delta`` is pinned at: the scan's
#: winner moves from the smallest Δ to the largest packing as N grows.
WORDS = (1, 64, 500, 100000)


def case(name):
    topology, terminals = CASES[name]
    return topology, sorted(terminals or topology.nodes)


def delta_grid(topology, terminals):
    """The Δ values ``optimize_delta`` scans."""
    lo = max(1, topology.diameter(among=terminals))
    hi = max(lo, topology.num_nodes)
    return sorted({lo, hi} | {min(hi, lo * 2**i) for i in range(12)})


def golden_record(name):
    """What the golden file holds for one case (also its generator)."""
    topology, terminals = case(name)
    return {
        "terminals": terminals,
        "packings": {
            str(delta): [
                [list(edge) for edge in tree.edges]
                for tree in pack_steiner_trees(topology, terminals, delta)
            ]
            for delta in delta_grid(topology, terminals)
        },
        "optimize_delta": {
            str(words): [delta, len(trees), rounds]
            for words in WORDS
            for delta, trees, rounds in [
                optimize_delta(topology, terminals, words)
            ]
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def cold_memos():
    clear_all_memos()


def adjacency_of(topology):
    """``node -> [neighbours]`` of the whole topology, to cut edges from."""
    return {node: list(nbrs) for node, nbrs in topology.adjacency.items()}


def reference_terminal_diameter(tree):
    lengths = dict(nx.all_pairs_shortest_path_length(nx.Graph(list(tree.edges))))
    return max(
        (lengths[s][t] for s in tree.terminals for t in tree.terminals),
        default=0,
    )


def assert_valid_packing(topology, terminals, delta, trees):
    seen = set()
    for tree in trees:
        assert tree.terminals == tuple(terminals)
        assert all(topology.has_edge(u, v) for u, v in tree.edges)
        assert seen.isdisjoint(tree.edges)
        seen.update(tree.edges)
        g = nx.Graph(list(tree.edges))
        assert nx.is_tree(g) and set(terminals) <= set(g)
        assert reference_terminal_diameter(tree) <= delta


# ---------------------------------------------------------------------------
# Golden packings
# ---------------------------------------------------------------------------


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_packings_match_golden(name, golden):
    assert golden_record(name) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_scan_matches_golden(name, golden):
    topology, terminals = case(name)
    deltas = delta_grid(topology, terminals)
    scanned = scan_steiner_packings(topology, terminals, deltas)
    assert {
        str(delta): [[list(edge) for edge in tree.edges] for tree in trees]
        for delta, trees in zip(deltas, scanned)
    } == golden[name]["packings"]


def test_clique_packs_the_two_disjoint_paths_of_example_2_3(golden):
    direct, detour = golden["clique6-pair"]["packings"]["6"][:2]
    assert direct == [["P0", "P5"]]
    assert len(detour) == 2 and {"P0", "P5"} < {n for e in detour for n in e}


@pytest.mark.parametrize("name", sorted(CASES))
def test_terminal_diameter_on_every_candidate_tree(name, golden):
    """Walk each golden packing's residual graphs and check every
    candidate the greedy step saw against networkx all-pairs."""
    topology, terminals = case(name)
    checked = 0
    for packing in golden[name]["packings"].values():
        residual = adjacency_of(topology)
        for edges in packing + [[]]:
            for candidate in _candidate_trees(residual, terminals):
                tree = SteinerTree(candidate, terminals[0], tuple(terminals))
                assert tree.terminal_diameter() == reference_terminal_diameter(tree)
                checked += 1
            for u, v in edges:
                residual[u].remove(v)
                residual[v].remove(u)
    assert checked


def test_terminal_diameter_degenerate_trees():
    assert SteinerTree((), "P0", ("P0",)).terminal_diameter() == 0
    path = SteinerTree((("P0", "P1"), ("P1", "P2")), "P0", ("P0", "P2"))
    assert path.terminal_diameter() == 2
    assert SteinerTree(path.edges, "P1", ("P1",)).terminal_diameter() == 0


# ---------------------------------------------------------------------------
# Unusable residual graphs
# ---------------------------------------------------------------------------


def test_find_steiner_tree_on_a_graph_lacking_a_terminal():
    g = Topology.line(4)
    for missing in ("P0", "P3"):  # the root terminal, then a later one
        graph = adjacency_of(g)
        for nb in graph.pop(missing):
            graph[nb].remove(missing)
        assert find_steiner_tree(g, ["P0", "P3"], graph=graph) is None
        assert _candidate_trees(graph, ["P0", "P3"]) == []


def test_find_steiner_tree_on_disconnected_terminals():
    g = Topology.line(4)
    graph = adjacency_of(g)
    graph["P1"].remove("P2")
    graph["P2"].remove("P1")
    assert find_steiner_tree(g, ["P0", "P3"], graph=graph) is None
    assert find_steiner_tree(g, ["P0", "P1"], graph=graph).edges == (("P0", "P1"),)


def test_a_cut_off_node_costs_the_mehlhorn_candidate_only():
    # ring(6) minus both edges of P1: K = {P0, P3} stays connected the
    # long way round, but P1 has no nearest terminal — where networkx's
    # Mehlhorn raises KeyError, and so does the port.  The BFS / DFS
    # candidates (all the one remaining path) still come back.
    g = Topology.ring(6)
    graph = adjacency_of(g)
    for nb in ("P0", "P2"):
        graph["P1"].remove(nb)
        graph[nb].remove("P1")
    with pytest.raises(KeyError):
        _mehlhorn_tree(graph, ["P0", "P3"])
    path = (("P0", "P5"), ("P3", "P4"), ("P4", "P5"))
    assert _candidate_trees(graph, ["P0", "P3"]) == [path]
    assert find_steiner_tree(g, ["P0", "P3"], graph=graph).edges == path
    # With P1 attached again Mehlhorn's tree is the first candidate.
    assert _mehlhorn_tree(adjacency_of(g), ["P0", "P2"]) == (
        ("P0", "P1"), ("P1", "P2")
    )
    assert _candidate_trees(adjacency_of(g), ["P0", "P2"])[0] == (
        ("P0", "P1"), ("P1", "P2")
    )


# ---------------------------------------------------------------------------
# Seeded properties on random regular graphs
# ---------------------------------------------------------------------------


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(3, 5)
        n = rng.randint(10, 40)
        n += (n * degree) % 2
        topology = Topology.random_regular(degree, n, seed=rng.randrange(10**6))
        terminals = sorted(rng.sample(topology.nodes, rng.randint(2, min(n, 9))))
        yield rng, topology, terminals


def test_random_packings_are_valid_and_scan_order_free():
    for rng, topology, terminals in random_cases(20190625, 25):
        deltas = delta_grid(topology, terminals)
        scanned = scan_steiner_packings(topology, terminals, deltas)
        for delta, trees in zip(deltas, scanned):
            assert_valid_packing(topology, terminals, delta, trees)
        # One Δ at a time, every memo cold, in a shuffled order.
        shuffled = deltas[:]
        rng.shuffle(shuffled)
        for delta in shuffled:
            clear_all_memos()
            alone = pack_steiner_trees(topology, terminals, delta)
            assert alone == scanned[deltas.index(delta)]
        # A sub-scan in descending order shares states the other way round.
        clear_all_memos()
        backwards = scan_steiner_packings(topology, terminals, deltas[::-1])
        assert backwards == scanned[::-1]


def test_every_candidate_of_every_reached_state_is_a_steiner_tree():
    checked = 0
    for _rng, topology, terminals in random_cases(31337, 15):
        deltas = delta_grid(topology, terminals)
        for trees in scan_steiner_packings(topology, terminals, deltas):
            # The states this packing walked: nothing removed, then one
            # more tree at a time, the failing last step included.
            removed = set()
            for packed in trees + [None]:
                expanded = _expand_state(
                    topology, tuple(terminals), frozenset(removed)
                )
                assert (packed is None) or packed in [c for c, _, _ in expanded]
                for candidate, _diameter, _score in expanded:
                    assert removed.isdisjoint(candidate.edges)
                    assert all(topology.has_edge(u, v) for u, v in candidate.edges)
                    g = nx.Graph(list(candidate.edges))
                    assert nx.is_tree(g) and set(terminals) <= set(g)
                    assert all(
                        g.degree(node) > 1 for node in set(g) - set(terminals)
                    )
                    checked += 1
                if packed is not None:
                    removed.update(packed.edges)
    assert checked > 500


def test_limit_truncates_a_packing_to_its_prefix():
    for rng, topology, terminals in random_cases(777, 15):
        delta = rng.choice(delta_grid(topology, terminals))
        full = pack_steiner_trees(topology, terminals, delta)
        for limit in range(len(full) + 2):
            clear_all_memos()
            assert pack_steiner_trees(
                topology, terminals, delta, limit=limit
            ) == full[:limit]


def test_unbounded_delta_is_the_node_count():
    topology, terminals = case("hypercube4-K5")
    unbounded = pack_steiner_trees(topology, terminals)
    assert unbounded == pack_steiner_trees(
        topology, terminals, topology.num_nodes
    )
    assert scan_steiner_packings(topology, terminals, [None]) == [unbounded]
