"""Tests for topologies, cuts and Steiner packing.

``tests/golden/topologies.json`` pins every builder's adjacency in
insertion order, its ``edges()`` and every ``shortest_path``.  It was
written while ``Topology`` still held an ``nx.Graph`` (networkx 3.6.1's
generators, ``add_edge`` order and ``single_source_shortest_path``);
routes, packings and cuts break ties by that order, so the plain-dict
``Topology`` has to reproduce it (regenerate: ``tests/golden/README.md``).
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    Topology,
    find_steiner_tree,
    mincut,
    mincut_partition,
    pack_steiner_trees,
    st_value,
)


def test_line_structure():
    g = Topology.line(5)
    assert g.num_nodes == 5
    assert g.num_edges == 4
    assert g.distance("P0", "P4") == 4
    assert g.diameter() == 4
    assert g.neighbors("P2") == ["P1", "P3"]


def test_clique_structure():
    g = Topology.clique(5)
    assert g.num_edges == 10
    assert g.diameter() == 1


def test_star_ring_grid_tree_barbell():
    assert Topology.star(4).degree("P0") == 4
    assert Topology.ring(6).diameter() == 3
    grid = Topology.grid(3, 3)
    assert grid.num_nodes == 9
    assert grid.distance("P0_0", "P2_2") == 4
    tree = Topology.balanced_tree(2, 3)
    assert tree.num_nodes == 15
    bb = Topology.barbell(3, 2)
    assert mincut(bb, ["L1", "R1"]) == 1


def test_invalid_topologies():
    with pytest.raises(ValueError):
        Topology.line(1)
    with pytest.raises(ValueError):
        Topology([("a", "a")])
    with pytest.raises(ValueError):
        Topology.grid(1, 1)
    with pytest.raises(ValueError, match="branching >= 1 and depth >= 1"):
        Topology.balanced_tree(2, 0)


# A Topology fails in its own words: a ValueError naming the player(s)
# or the infeasible (degree, n), never a networkx error, a bare KeyError
# or an empty view standing in for an int.


def test_degree_of_an_unknown_player():
    with pytest.raises(ValueError, match="player not in topology: 'P9'"):
        Topology.line(4).degree("P9")


def test_neighbors_of_an_unknown_player():
    with pytest.raises(ValueError, match="player not in topology: 'P9'"):
        Topology.line(4).neighbors("P9")


def test_shortest_path_from_an_unknown_player():
    with pytest.raises(ValueError, match="player not in topology: 'P9'"):
        Topology.line(4).shortest_path("P9", "P0")


def test_shortest_path_and_distance_to_an_unknown_player():
    g = Topology.line(4)
    with pytest.raises(ValueError, match="player not in topology: 'P9'"):
        g.shortest_path("P0", "P9")
    with pytest.raises(ValueError, match="player not in topology: 'P9'"):
        g.distance("P0", "P9")


def test_diameter_of_a_disconnected_topology():
    g = Topology([("a", "b"), ("c", "d")])
    assert not g.is_connected()
    with pytest.raises(ValueError, match="no path between players 'a' and 'c'"):
        g.diameter()


def test_random_regular_with_odd_stub_count():
    with pytest.raises(ValueError, match=r"\(degree, n\) = \(3, 5\)"):
        Topology.random_regular(3, 5)


def test_expander_with_degree_not_below_n():
    with pytest.raises(ValueError, match=r"\(degree, n\) = \(4, 4\)"):
        Topology.expander(4, 4)


def test_bfs_tree():
    g = Topology.line(4)
    parents = g.bfs_tree("P3")
    assert parents["P3"] is None
    assert parents["P0"] == "P1"
    assert parents["P2"] == "P3"


def test_two_party():
    g = Topology.two_party()
    assert set(g.nodes) == {"a", "b"}


# ---------------------------------------------------------------------------
# MinCut (Definition 3.6)
# ---------------------------------------------------------------------------


def test_mincut_line_is_one():
    g = Topology.line(6)
    assert mincut(g, ["P0", "P5"]) == 1
    assert mincut(g, g.nodes) == 1


def test_mincut_clique():
    g = Topology.clique(5)
    assert mincut(g, g.nodes) == 4


def test_mincut_ring_is_two():
    g = Topology.ring(6)
    assert mincut(g, ["P0", "P3"]) == 2


def test_mincut_requires_two_players():
    g = Topology.line(3)
    with pytest.raises(ValueError):
        mincut(g, ["P0"])
    with pytest.raises(ValueError):
        mincut(g, ["P0", "nope"])


def test_mincut_partition_separates():
    g = Topology.line(4)
    side_a, side_b, crossing = mincut_partition(g, ["P0", "P3"])
    assert ("P0" in side_a) != ("P0" in side_b)
    assert len(crossing) == 1
    for u, v in crossing:
        assert (u in side_a) != (v in side_a)


# ---------------------------------------------------------------------------
# Steiner trees (Definitions 3.8-3.9, Theorem 3.10)
# ---------------------------------------------------------------------------


def test_find_steiner_tree_line():
    g = Topology.line(5)
    tree = find_steiner_tree(g, ["P0", "P4"])
    assert tree is not None
    assert len(tree.edges) == 4
    assert tree.terminal_diameter() == 4


def test_steiner_tree_parent_map_and_depth():
    g = Topology.line(4)
    tree = find_steiner_tree(g, g.nodes)
    parents = tree.parent_map()
    assert parents[tree.root] is None
    assert set(parents) == set(tree.nodes)
    assert tree.depth() >= 1


def test_pack_line_single_tree():
    g = Topology.line(5)
    packed = pack_steiner_trees(g, g.nodes)
    assert len(packed) == 1


def test_pack_clique_many_trees():
    """Theorem 3.10 shape: ST(G, K, |V|) = Ω(MinCut) on a clique."""
    g = Topology.clique(6)
    cut = mincut(g, g.nodes)
    packed = pack_steiner_trees(g, g.nodes)
    assert len(packed) >= cut // 2  # greedy is within a constant factor
    # Edge-disjointness:
    seen = set()
    for tree in packed:
        for edge in tree.edges:
            assert edge not in seen
            seen.add(edge)


def test_pack_respects_diameter():
    g = Topology.line(6)
    assert st_value(g, g.nodes, max_diameter=2) == 0
    assert st_value(g, g.nodes, max_diameter=5) == 1


def test_single_terminal_packing():
    g = Topology.line(3)
    packed = pack_steiner_trees(g, ["P0"])
    assert len(packed) == 1
    assert packed[0].edges == ()


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8))
def test_mincut_clique_property(n):
    g = Topology.clique(n)
    assert mincut(g, g.nodes) == n - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10))
def test_line_distance_property(n):
    g = Topology.line(n + 1)
    assert g.distance("P0", f"P{n}") == n


# ---------------------------------------------------------------------------
# New topology families: hypercube + expander (and regular determinism)
# ---------------------------------------------------------------------------


def test_hypercube_structure():
    g = Topology.hypercube(3)
    assert g.num_nodes == 8
    assert g.num_edges == 12  # dim * 2^(dim-1)
    assert all(g.degree(v) == 3 for v in g.nodes)
    assert g.diameter() == 3
    assert g.is_connected()
    # Antipodal nodes differ in every bit: P0 (000) vs P7 (111).
    assert g.distance("P0", "P7") == 3


def test_hypercube_dim_one_and_validation():
    g = Topology.hypercube(1)
    assert g.num_nodes == 2
    assert g.num_edges == 1
    with pytest.raises(ValueError):
        Topology.hypercube(0)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 6))
def test_hypercube_regularity_property(dim):
    g = Topology.hypercube(dim)
    assert g.num_nodes == 2**dim
    assert all(g.degree(v) == dim for v in g.nodes)
    # Min cut of the hypercube over all players is its degree.
    assert mincut(g, g.nodes) == dim


def test_expander_is_seeded_regular():
    g = Topology.expander(10, 3, seed=5)
    assert g.num_nodes == 10
    assert all(g.degree(v) == 3 for v in g.nodes)
    assert g.is_connected()


def test_expander_determinism_under_fixed_seed():
    a = Topology.expander(12, 3, seed=9)
    b = Topology.expander(12, 3, seed=9)
    assert a.edges() == b.edges()
    assert a.name == b.name


def test_random_regular_determinism_under_fixed_seed():
    a = Topology.random_regular(3, 12, seed=4)
    b = Topology.random_regular(3, 12, seed=4)
    assert a.edges() == b.edges()
    # Different seeds explore different graphs (overwhelmingly likely for
    # n=12, d=3; these specific seeds are checked to differ).
    c = Topology.random_regular(3, 12, seed=5)
    assert a.edges() != c.edges()


# ---------------------------------------------------------------------------
# Insertion order, pinned (tests/golden/topologies.json)
# ---------------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "topologies.json")

#: ``(n, degree, seed)`` of the seeded graphs: the ledger's
#: ``wide-expander`` (64, 4, 1), the fuzz sampler's sizes, and three seeds
#: whose first draw is disconnected — (8, 3, 15) and (10, 3, 157) move on
#: to the next seed, the 2-regular one (a ring) to the seventh.
_SEEDED = (
    (64, 4, 1), (4, 3, 0), (6, 3, 67), (8, 3, 3), (8, 3, 15), (10, 3, 5),
    (10, 3, 157), (12, 3, 9), (16, 4, 2), (16, 5, 11), (10, 2, 1), (20, 3, 7),
)

CASES = {
    "line5": lambda: Topology.line(5),
    "ring6": lambda: Topology.ring(6),
    "clique5": lambda: Topology.clique(5),
    "star4": lambda: Topology.star(4),
    "grid3x4": lambda: Topology.grid(3, 4),
    "hypercube3": lambda: Topology.hypercube(3),
    "barbell3_2": lambda: Topology.barbell(3, 2),
    "tree-b1-d3": lambda: Topology.balanced_tree(1, 3),
    "tree-b2-d3": lambda: Topology.balanced_tree(2, 3),
    "tree-b3-d2": lambda: Topology.balanced_tree(3, 2),
    **{
        f"expander-n{n}-d{d}-s{seed}":
            lambda n=n, d=d, seed=seed: Topology.expander(n, d, seed=seed)
        for n, d, seed in _SEEDED[::2]
    },
    **{
        f"regular-n{n}-d{d}-s{seed}":
            lambda n=n, d=d, seed=seed: Topology.random_regular(d, n, seed=seed)
        for n, d, seed in _SEEDED[1::2]
    },
}


def golden_record(name):
    """What the golden file holds for one case.  ``paths[src][dst]`` is
    the player before ``dst`` on ``shortest_path(src, dst)`` (None for
    ``src`` itself): with the check that every path is its
    predecessor's path plus ``dst``, that pins every path."""
    topology = CASES[name]()
    return {
        "adjacency": [[u, list(nbrs)] for u, nbrs in topology.adjacency.items()],
        "edges": [list(edge) for edge in topology.edges()],
        "paths": {
            src: {
                dst: None if dst == src else topology.shortest_path(src, dst)[-2]
                for dst in topology.adjacency
            }
            for src in topology.adjacency
        },
    }


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["topologies"]


def test_golden_file_covers_the_cases():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_topologies_match_the_golden_file(name):
    topology = CASES[name]()
    assert golden_record(name) == load_golden()[name]
    for src in topology.adjacency:
        for dst in topology.adjacency:
            path = topology.shortest_path(src, dst)
            if dst == src:
                assert path == [src]
            else:
                assert path == topology.shortest_path(src, path[-2]) + [dst]


# ---------------------------------------------------------------------------
# Properties that know no networkx
# ---------------------------------------------------------------------------


def bfs_distances(topology, src):
    distance = {src: 0}
    queue = [src]
    for node in queue:
        for nb in topology.adjacency[node]:
            if nb not in distance:
                distance[nb] = distance[node] + 1
                queue.append(nb)
    return distance


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(2, 6), st.integers(0, 10_000))
def test_random_regular_is_simple_regular_and_connected(n, degree, seed):
    if degree >= n or (n * degree) % 2:
        n += 1
    if degree >= n:
        degree = n - 1
    g = Topology.random_regular(degree, n, seed=seed)
    assert sorted(g.adjacency) == sorted(Topology.player(i) for i in range(n))
    for node, nbrs in g.adjacency.items():
        assert len(nbrs) == degree and node not in nbrs
        assert all(node in g.adjacency[nb] for nb in nbrs)
    assert g.num_edges == n * degree // 2 == len(set(g.edges()))
    assert len(bfs_distances(g, "P0")) == n


@pytest.mark.parametrize("name", sorted(CASES))
def test_shortest_paths_walk_edges_at_bfs_distance(name):
    g = CASES[name]()
    for src in g.adjacency:
        distance = bfs_distances(g, src)
        for dst in g.adjacency:
            path = g.shortest_path(src, dst)
            assert (path[0], path[-1]) == (src, dst)
            assert len(path) - 1 == distance[dst] == g.distance(src, dst)
            assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


def test_an_edge_given_twice_keeps_its_place():
    g = Topology([("a", "b"), ("a", "c"), ("b", "a"), ("c", "b")])
    assert {u: list(nbrs) for u, nbrs in g.adjacency.items()} == {
        "a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"],
    }
    assert g.num_edges == 3
