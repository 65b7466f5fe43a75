"""``MinCut(G, K)`` against an exhaustive oracle.

The oracle knows neither networkx nor augmenting paths: on graphs of at
most eight nodes it enumerates every bipartition that puts ``s = K[0]``
on one side and a terminal ``t`` on the other and counts the edges
across.  That pins the value (Definition 3.6) and the one property of
the partition the rest of the repo leans on without saying so —
``mincut_partition`` returns, for the first terminal in sorted order
whose cut from ``s`` is the smallest, the *smallest* sink side among all
minimum cuts (minimum cuts are closed under intersection, so there is
one), which is what keeps ``cut_ok`` / ``bits_crossing`` figures fixed.
"""

import itertools
import random

import pytest

from repro.network import Topology, mincut, mincut_partition

#: Every connected family the lab generates, at every size up to eight
#: nodes.
SMALL_TOPOLOGIES = (
    [Topology.line(n) for n in range(2, 9)]
    + [Topology.ring(n) for n in range(3, 9)]
    + [Topology.star(leaves) for leaves in range(1, 8)]
    + [Topology.clique(n) for n in range(2, 9)]
    + [
        Topology.grid(rows, cols)
        for rows in range(1, 5)
        for cols in range(1, 5)
        if 2 <= rows * cols <= 8
    ]
    + [Topology.balanced_tree(2, 1), Topology.balanced_tree(2, 2),
       Topology.balanced_tree(3, 1), Topology.balanced_tree(7, 1)]
    + [Topology.barbell(3, path) for path in range(0, 3)]
    + [Topology.barbell(2, 4), Topology.barbell(4, 0)]
    + [Topology.hypercube(dim) for dim in range(1, 4)]
    + [Topology.expander(n, 3, seed=seed) for n in (4, 6, 8) for seed in (0, 1)]
)


def sink_sides(topology, s, t):
    """``(edges across, sink side)`` of every bipartition of the nodes
    with ``s`` on the source side and ``t`` on the sink side."""
    others = [node for node in topology.nodes if node not in (s, t)]
    edges = topology.edges()
    for size in range(len(others) + 1):
        for chosen in itertools.combinations(others, size):
            side_b = {t, *chosen}
            across = sum((u in side_b) != (v in side_b) for u, v in edges)
            yield across, side_b


def terminal_sets(topology, rng, count=4):
    nodes = topology.nodes
    yield nodes
    for _ in range(count):
        yield rng.sample(nodes, rng.randint(2, len(nodes)))


@pytest.mark.parametrize(
    "topology", SMALL_TOPOLOGIES, ids=lambda topology: topology.name
)
def test_value_and_partition_against_every_bipartition(topology):
    assert topology.num_nodes <= 8
    rng = random.Random(f"mincut/{topology.name}")
    for players in terminal_sets(topology, rng):
        terminals = sorted(set(players))
        source = terminals[0]
        cuts = {t: list(sink_sides(topology, source, t)) for t in terminals[1:]}
        smallest = {t: min(across for across, _ in cuts[t]) for t in cuts}
        value = min(smallest.values())
        assert mincut(topology, players) == value

        side_a, side_b, crossing = mincut_partition(topology, players)
        assert side_a | side_b == set(topology.nodes)
        assert not side_a & side_b
        assert source in side_a
        assert len(crossing) == value
        assert crossing == [
            (u, v) for u, v in topology.edges() if (u in side_a) != (v in side_a)
        ]
        # The first terminal that attains the minimum, and the smallest
        # of its minimum sink sides.
        sink = next(t for t in terminals[1:] if smallest[t] == value)
        minimum_sides = [side for across, side in cuts[sink] if across == value]
        assert side_b == set.intersection(*minimum_sides)
        assert side_b in minimum_sides


def test_disconnected_terminals_have_an_empty_cut():
    g = Topology([("a", "b"), ("c", "d"), ("d", "e")])
    assert mincut(g, ["a", "c"]) == 0
    assert mincut_partition(g, ["a", "c"]) == ({"a", "b"}, {"c", "d", "e"}, [])
    # One separated pair is enough: K need not be split evenly.
    assert mincut(g, ["a", "b", "e"]) == 0
    assert mincut_partition(g, ["a", "b", "e"]) == (
        {"a", "b"}, {"c", "d", "e"}, []
    )


def test_two_party_topology():
    g = Topology.two_party()
    assert mincut(g, ["b", "a"]) == 1
    assert mincut_partition(g, ["b", "a"]) == ({"a"}, {"b"}, [("a", "b")])


def test_results_are_fresh_per_call():
    g = Topology.ring(5)
    for part in mincut_partition(g, g.nodes):
        part.clear()
    assert mincut_partition(g, g.nodes) == (
        {"P0", "P2", "P3", "P4"}, {"P1"}, [("P0", "P1"), ("P1", "P2")]
    )


@pytest.mark.parametrize("entry_point", [mincut, mincut_partition])
def test_both_entry_points_reject_the_same_inputs_the_same_way(entry_point):
    g = Topology.line(4)
    with pytest.raises(ValueError, match=r"players not in topology: \['P9'\]"):
        entry_point(g, ["P0", "P9"])
    with pytest.raises(ValueError, match="at least two distinct players"):
        entry_point(g, ["P0", "P0"])
    with pytest.raises(ValueError, match="at least two distinct players"):
        entry_point(g, [])
