"""Planning differential — dict-native min cut and Mehlhorn port
against the networkx calls they replaced.

:mod:`repro.network.mincut` finds ``MinCut(G, K)`` and its partition
with one augmenting-path scan over an adjacency dict, and
:func:`repro.network.steiner._mehlhorn_tree` is a port of networkx
3.6.1's ``_mehlhorn_steiner_tree`` to unit weights.  The claim is *same
objects*: the same value, the same ``(A, B, crossing)`` and the same
first candidate tree, tie for tie.

The references below are the replaced code, copied verbatim from the
commit before (``mincut``, ``mincut_partition``, ``_unit_mincut``, and
the ``nx_steiner_tree`` + ``_prune_to_steiner`` pair that produced the
first candidate of ``_candidate_trees``).  They are compared on every
distinct (topology, players) pair the fuzz generator draws — the pairs
``bench_steiner_differential.py`` packs — plus the 64-node expander and
the terminal sets of the ledger's ``wide-expander`` workload; the
Mehlhorn port on every residual graph those packings walk and on 500
seeded random ones, which reach the case where both sides skip the
candidate (a node cut off from every terminal) often.

Run it after touching ``network/mincut.py``, ``_mehlhorn_tree`` or any
of its helpers, and after a networkx upgrade: a failure of the second
test *alone* means networkx changed a tie-break the port still keeps.
"""

import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx
from networkx.algorithms.approximation import steiner_tree as nx_steiner_tree

from repro.core.memo import clear_all_memos
from repro.lab.generate import generate_scenarios
from repro.network.mincut import mincut, mincut_partition
from repro.network.steiner import _mehlhorn_tree, scan_steiner_packings
from repro.network.topology import Topology
from repro.pipeline import plan_scenario

from bench_steiner_differential import COUNT, MASTER_SEEDS, scanned_deltas
from conftest import print_banner

#: ``wide-expander``'s planning inputs: one terminal set per star of its
#: plan, and their union (the eight players the min cut is taken over).
WIDE_TOPOLOGY = Topology.expander(64, 4, seed=1)
WIDE_TERMINALS = (
    ("P10", "P12", "P13"),
    ("P0", "P1", "P10", "P11", "P14", "P15"),
    ("P0", "P1", "P10", "P11", "P12", "P13", "P14", "P15"),
)


# ---------------------------------------------------------------------------
# The references: the networkx calls as they stood
# ---------------------------------------------------------------------------


def reference_mincut(topology: Topology, players: Sequence[str]) -> int:
    terminals = sorted(set(players))
    if len(terminals) < 2:
        raise ValueError("MinCut(G, K) needs at least two distinct players")
    missing = [p for p in terminals if p not in topology]
    if missing:
        raise ValueError(f"players not in topology: {missing}")
    source = terminals[0]
    return min(
        nx.algorithms.connectivity.local_edge_connectivity(
            topology.graph, source, t
        )
        for t in terminals[1:]
    )


def reference_mincut_partition(
    topology: Topology, players: Sequence[str]
) -> Tuple[Set[str], Set[str], List[Tuple[str, str]]]:
    terminals = sorted(set(players))
    if len(terminals) < 2:
        raise ValueError("need at least two distinct players")
    source = terminals[0]
    best = None
    g = topology.graph
    for t in terminals[1:]:
        value, side_a, side_b = _unit_mincut(g, source, t)
        if best is None or value < best[0]:
            best = (value, side_a, side_b)
    _, side_a, side_b = best
    crossing = sorted(
        tuple(sorted((u, v)))
        for u, v in g.edges
        if (u in side_a) != (v in side_a)
    )
    return set(side_a), set(side_b), crossing


def _unit_mincut(g: nx.Graph, s: str, t: str):
    """Minimum s-t edge cut with unit capacities."""
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    for u, v in g.edges:
        h.add_edge(u, v, capacity=1)
    value, (side_a, side_b) = nx.minimum_cut(h, s, t)
    return value, side_a, side_b


def _prune_to_steiner(tree_edges, terminals) -> Tuple[Tuple[str, str], ...]:
    """Iteratively drop non-terminal leaves from the edge set of a tree
    spanning ``terminals``; what is left is unique, and returned sorted."""
    adjacency: Dict[str, set] = {}
    for u, v in tree_edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    terminal_set = set(terminals)
    leaves = [
        node for node, nbrs in adjacency.items()
        if len(nbrs) == 1 and node not in terminal_set
    ]
    while leaves:
        node = leaves.pop()
        for nb in adjacency.pop(node):
            adjacency[nb].discard(node)
            if len(adjacency[nb]) == 1 and nb not in terminal_set:
                leaves.append(nb)
    return tuple(sorted(
        (u, v) for u, nbrs in adjacency.items() for v in nbrs if u < v
    ))


def reference_first_candidate(
    g: nx.Graph, terminals: Sequence[str]
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """The candidate ``_candidate_trees`` took from networkx; None where
    it went on without one."""
    try:
        return _prune_to_steiner(
            nx_steiner_tree(g, list(terminals)).edges, terminals
        )
    except (nx.NetworkXError, KeyError):
        return None


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def ported_first_candidate(
    g: nx.Graph, terminals: Sequence[str]
) -> Optional[Tuple[Tuple[str, str], ...]]:
    adjacency = {node: list(nbrs) for node, nbrs in g.adjacency()}
    try:
        return _mehlhorn_tree(adjacency, terminals)
    except KeyError:
        return None


def planning_inputs() -> Iterator[Tuple[str, Topology, List[str]]]:
    """``(label, topology, players)``, each distinct pair once."""
    seen = set()
    for master in MASTER_SEEDS:
        for spec in generate_scenarios(master, COUNT):
            planner, _plan = plan_scenario(spec)
            topology, players = planner.topology, sorted(planner.players)
            pair = (tuple(topology.edges()), tuple(players))
            if len(players) < 2 or pair in seen:
                continue  # co-located: no cut, nothing to pack
            seen.add(pair)
            yield spec.label, topology, players
    for terminals in WIDE_TERMINALS:
        yield f"wide-expander K={len(terminals)}", WIDE_TOPOLOGY, list(terminals)


def walked_residuals(
    topology: Topology, terminals: Sequence[str]
) -> Iterator[nx.Graph]:
    """The residual graph of every state the Δ-scan packings of
    (``topology``, ``terminals``) pass through, each once, built the way
    the replaced ``_expand_state`` built it."""
    seen = set()
    deltas = scanned_deltas(topology, terminals)
    for trees in scan_steiner_packings(topology, terminals, deltas):
        removed: Set[Tuple[str, str]] = set()
        for tree in trees + [None]:
            if frozenset(removed) not in seen:
                seen.add(frozenset(removed))
                residual = topology.graph.copy()
                residual.remove_edges_from(removed)
                yield residual
            if tree is not None:
                removed.update(tree.edges)


def random_residuals(seed: int, count: int) -> Iterator[Tuple[nx.Graph, List[str]]]:
    """Random regular graphs with up to a third of their edges removed,
    and terminals that stay connected: unlike the walked states these
    reach the cut-off-node case often."""
    rng = random.Random(seed)
    while count:
        degree = rng.randint(3, 5)
        n = rng.randint(8, 40)
        n += (n * degree) % 2
        topology = Topology.random_regular(degree, n, seed=rng.randrange(10**6))
        residual = topology.graph.copy()
        edges = list(residual.edges)
        residual.remove_edges_from(rng.sample(edges, rng.randint(0, len(edges) // 3)))
        terminals = sorted(rng.sample(topology.nodes, rng.randint(2, min(n, 9))))
        component = nx.node_connected_component(residual, terminals[0])
        if component.issuperset(terminals):
            count -= 1
            yield residual, terminals


def test_mincut_equals_the_networkx_flows_on_fuzz_specs():
    print_banner(
        f"min-cut differential: {len(MASTER_SEEDS)} x {COUNT} fuzz specs + "
        "wide-expander, augmenting-path scan vs networkx flows"
    )
    failures = []
    pairs = 0
    for label, topology, players in planning_inputs():
        pairs += 1
        if mincut(topology, players) != reference_mincut(topology, players):
            failures.append((label, "value"))
        if mincut_partition(topology, players) != reference_mincut_partition(
            topology, players
        ):
            failures.append((label, "partition"))
    print(f"{pairs} distinct (topology, players) pairs cut both ways")
    clear_all_memos()
    assert pairs and not failures, failures


def test_mehlhorn_port_equals_networkx_on_the_walked_residual_graphs():
    print_banner(
        "Mehlhorn differential: the port vs nx steiner_tree on every "
        "residual graph the Δ-scan packings walk"
    )
    failures = []
    equal = skipped = 0
    for label, topology, players in planning_inputs():
        clear_all_memos()
        for residual in walked_residuals(topology, players):
            if any(t not in nx.node_connected_component(residual, players[0])
                   for t in players):
                continue  # the failing last step: no candidates asked for
            expected = reference_first_candidate(residual, players)
            if ported_first_candidate(residual, players) != expected:
                failures.append((label, residual.number_of_edges()))
            elif expected is None:
                skipped += 1
            else:
                equal += 1
    clear_all_memos()
    print(f"walked by the packings: {equal} with the same tree, {skipped} skipped by both")
    assert equal and not failures, failures
    equal = skipped = 0
    for residual, terminals in random_residuals(20190625, 500):
        expected = reference_first_candidate(residual, terminals)
        if ported_first_candidate(residual, terminals) != expected:
            failures.append((sorted(residual.edges), terminals))
        elif expected is None:
            skipped += 1
        else:
            equal += 1
    print(f"500 seeded random ones: {equal} with the same tree, {skipped} skipped by both")
    assert equal and skipped and not failures, failures
