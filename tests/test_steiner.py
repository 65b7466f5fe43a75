"""The greedy Steiner packer, pinned tree for tree.

``tests/golden/steiner_packings.json`` holds the packing — the edges of
every tree, in packing order — at each Δ of the Theorem 3.11 scan on
the paper's small topologies and on the 64-node expander the ledger's
``wide-expander`` workload plans over, plus ``optimize_delta``'s
choice.  It was written by the from-scratch networkx packer (one greedy
run per Δ); any packer that shares work across Δ has to reproduce it
(regenerate: ``tests/golden/README.md``), expanding the same residual
states (``STATE_COUNTS``).  Two bounds computed without the packer
close the file: every scanned packing sits under MinCut(G, K), and at
K = V the greedy count sits under the exact spanning-tree packing
number.
"""

import json
import os
import random

import networkx as nx
import pytest

from repro.core.memo import clear_all_memos
from repro.lab.generate import generate_scenarios
from repro.network import Topology
from repro.network.mincut import mincut
from repro.network.steiner import (
    SteinerTree,
    _candidate_trees,
    _expand_state,
    _mehlhorn_tree,
    _topology_graph,
    find_steiner_tree,
    optimize_delta,
    pack_steiner_trees,
    scan_steiner_packings,
    st_value,
)
from repro.obs.counters import COUNTERS
from repro.pipeline import TOPOLOGY_FAMILIES, plan_scenario

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

#: ``(steiner.states_expanded, steiner.states_shared)`` of one cold scan
#: over each case's Δ grid, as the dict-of-dicts packer the integer
#: search replaced counted them: a search that expands other states
#: fails here even where its trees match the golden.
STATE_COUNTS = {
    "barbell4_2": (2, 2),
    "barbell4_2-ends": (2, 2),
    "clique6": (5, 4),
    "clique6-pair": (6, 14),
    "expander64-K3": (5, 22),
    "expander64-K6": (5, 12),
    "expander64-K8": (5, 8),
    "grid3x4": (2, 3),
    "grid3x4-corners": (2, 3),
    "hypercube4": (4, 2),
    "hypercube4-K5": (6, 5),
    "line5": (2, 2),
    "ring8": (2, 1),
    "tree2_3": (2, 4),
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


def expand(topology, terminals, removed):
    """``_expand_state`` of ``topology - removed`` in names:
    ``(tree, terminal diameter, score)`` per candidate."""
    graph = _topology_graph(topology)
    edge_id = {edge: e for e, edge in enumerate(graph.edges)}
    expanded = _expand_state(
        graph,
        [graph.ids[t] for t in terminals],
        frozenset(edge_id[edge] for edge in removed),
    )
    return [
        (SteinerTree(graph.edge_names(edges), terminals[0], tuple(terminals)),
         diameter, score)
        for edges, diameter, score in expanded
    ]


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
    """Walk each golden packing's residual states and check the
    diameter the greedy step filtered every candidate by — and
    ``SteinerTree.terminal_diameter`` — against networkx all-pairs."""
    topology, terminals = case(name)
    checked = 0
    for packing in golden[name]["packings"].values():
        removed = set()
        for edges in packing + [[]]:
            for tree, diameter, _score in expand(topology, terminals, removed):
                expected = reference_terminal_diameter(tree)
                assert diameter == tree.terminal_diameter() == expected
                checked += 1
            removed.update(map(tuple, edges))
    assert checked


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_scan_expands_the_pinned_states(name):
    topology, terminals = case(name)
    before = COUNTERS.snapshot()
    scan_steiner_packings(topology, terminals, delta_grid(topology, terminals))
    after = COUNTERS.snapshot()
    assert tuple(
        after.get(counter, 0) - before.get(counter, 0)
        for counter in ("steiner.states_expanded", "steiner.states_shared")
    ) == STATE_COUNTS[name]


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


@pytest.mark.parametrize(
    "terminals, message",
    [((), "no terminals"), (("P0", "P9"), "player not in topology: 'P9'")],
    ids=["empty", "not-in-G"],
)
@pytest.mark.parametrize(
    "entry",
    [
        find_steiner_tree,
        pack_steiner_trees,
        st_value,
        lambda topology, terminals: optimize_delta(topology, terminals, 64),
    ],
    ids=["find_steiner_tree", "pack_steiner_trees", "st_value", "optimize_delta"],
)
def test_a_bad_terminal_set_is_a_value_error(entry, terminals, message):
    with pytest.raises(ValueError, match=message):
        entry(Topology.line(4), list(terminals))


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
                expanded = expand(topology, terminals, removed)
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


# ---------------------------------------------------------------------------
# Theorem 3.10's upper side, and an exact oracle for K = V
# ---------------------------------------------------------------------------


def test_every_scanned_packing_is_sandwiched_under_the_min_cut():
    """On every topology the fuzz generator draws, with K the terminals
    of each star its plan packs over: every tree of every Δ of the scan
    spans K within Δ, the trees are pairwise edge-disjoint, and there
    are at most MinCut(G, K) of them (each tree crosses every cut
    separating K)."""
    seen = set()
    for spec in generate_scenarios(777, 100):
        _planner, plan = plan_scenario(spec)
        topology = _planner.topology
        for star in plan.stars:
            terminals = list(star.slot_plan.terminals)
            pair = (tuple(topology.edges()), tuple(terminals))
            if len(terminals) < 2 or pair in seen:
                continue
            seen.add(pair)
            cut = mincut(topology, terminals)
            deltas = delta_grid(topology, terminals)
            packings = scan_steiner_packings(topology, terminals, deltas)
            assert any(packings), spec.label
            for delta, trees in zip(deltas, packings):
                assert_valid_packing(topology, terminals, delta, trees)
                assert len(trees) <= cut, (spec.label, delta)
    assert len(seen) > 10


def set_partitions(items):
    """Every partition of ``items`` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def spanning_tree_packing_number(topology):
    """The most edge-disjoint spanning trees G holds, by Nash-Williams
    and Tutte: the least ``floor(crossing edges / (blocks - 1))`` over
    every partition of V into two or more blocks."""
    best = None
    for partition in set_partitions(topology.nodes):
        if len(partition) < 2:
            continue
        block = {node: i for i, nodes in enumerate(partition) for node in nodes}
        crossing = sum(block[u] != block[v] for u, v in topology.edges())
        value = crossing // (len(partition) - 1)
        best = value if best is None else min(best, value)
    return best


#: The lab's topology families at every sampled size of at most eight
#: nodes (the seeded ones at three seeds each).
SMALL_FAMILIES = [
    *(("line", {"n": n}) for n in range(2, 7)),
    *(("ring", {"n": n}) for n in range(3, 7)),
    *(("clique", {"n": n}) for n in range(3, 7)),
    *(("star", {"leaves": k}) for k in range(2, 6)),
    *(("grid", {"rows": 2, "cols": c}) for c in (2, 3)),
    *(("tree", {"branching": 2, "depth": d}) for d in (1, 2)),
    *(("hypercube", {"dim": d}) for d in (1, 2, 3)),
    *(
        (family, {"n": n, "degree": 3, "seed": seed})
        for family in ("expander", "regular")
        for n in (4, 6, 8)
        for seed in range(3)
    ),
    *(("barbell", {"clique_size": 3, "path_len": p}) for p in (1, 2)),
]


def test_bell_numbers_count_the_partitions():
    assert [
        sum(1 for _ in set_partitions(list(range(n)))) for n in range(1, 9)
    ] == [1, 2, 5, 15, 52, 203, 877, 4140]


def test_greedy_spanning_tree_packing_against_the_exact_optimum():
    print()
    rows = []
    for family, params in SMALL_FAMILIES:
        topology = TOPOLOGY_FAMILIES[family](**params)
        assert topology.num_nodes <= 8
        nodes = topology.nodes
        optimum = spanning_tree_packing_number(topology)
        cut = mincut(topology, nodes)
        assert optimum <= cut
        deltas = delta_grid(topology, nodes)
        greedy = max(
            len(trees) for trees in scan_steiner_packings(topology, nodes, deltas)
        )
        assert 1 <= greedy <= optimum
        label = family + "(" + ", ".join(f"{k}={v}" for k, v in params.items()) + ")"
        rows.append((label, topology.num_nodes, greedy, optimum, cut))
    width = max(len(row[0]) for row in rows)
    print(f"{'topology':<{width}}  |V|  greedy  optimum  mincut")
    for label, n, greedy, optimum, cut in rows:
        print(f"{label:<{width}}  {n:>3}  {greedy:>6}  {optimum:>7}  {cut:>6}")
