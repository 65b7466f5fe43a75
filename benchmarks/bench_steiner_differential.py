"""Steiner differential — the Δ-scan packer against a from-scratch one.

:func:`repro.network.steiner.scan_steiner_packings` runs the greedy
packer once per Δ of a scan but expands each residual state (the set of
edges removed so far) once, sharing its candidate trees, their terminal
diameters and their scores between every Δ that reaches it; it walks
an integer-indexed graph where the packer it replaced built networkx
objects.  The claim is that every packing is unchanged, tree for tree.

The reference below is that replaced packer, copied verbatim from the
commit before the scan existed (``_pack_steiner_trees``,
``_candidate_trees``, ``_prune_to_steiner`` and the networkx
``terminal_diameter``): one greedy run per Δ from the full graph, with
nothing shared.  It imports only :class:`SteinerTree` (as the frozen
record the two sides are compared in) from the product, and starts from
:func:`reference_graph`, the ``nx.Graph`` a :class:`Topology` used to
hold.  Every fuzz spec's (topology, players) is packed at each Δ either
caller scans.

After touching the state key, the candidate order or the score in
``network/steiner.py``, run it; to size a mutation, break the code and
see which scenario it names (keying the state cache on the *number* of
removed edges instead of the set fails it).
"""

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
from networkx.algorithms.approximation import steiner_tree as nx_steiner_tree

from repro.core.memo import clear_all_memos
from repro.lab.generate import generate_scenarios
from repro.network.steiner import SteinerTree, scan_steiner_packings
from repro.network.topology import Topology
from repro.pipeline import plan_scenario

from conftest import print_banner

MASTER_SEEDS = (20190625, 777)
COUNT = 100


# ---------------------------------------------------------------------------
# The reference: the packer as it stood before the Δ-scan
# ---------------------------------------------------------------------------


def reference_graph(topology: Topology) -> nx.Graph:
    """An ``nx.Graph`` holding G in the order of ``topology.adjacency``
    at both levels, built through ``add_edge`` alone: an edge goes in
    once it heads what is left of both its endpoints' neighbour lists
    (the order G's own edges arrived in is one such order)."""
    g = nx.Graph()
    g.add_nodes_from(topology.adjacency)
    left = {u: list(nbrs)[::-1] for u, nbrs in topology.adjacency.items()}
    while any(left.values()):
        for u, nbrs in left.items():
            while nbrs and left[nbrs[-1]][-1] == u:
                v = nbrs.pop()
                left[v].pop()
                g.add_edge(u, v)
    assert [(u, list(nbrs)) for u, nbrs in g.adjacency()] == [
        (u, list(nbrs)) for u, nbrs in topology.adjacency.items()
    ]
    return g


def reference_terminal_diameter(tree: SteinerTree) -> int:
    """Max tree distance between two terminals (Definition 3.9's Δ)."""
    g = nx.Graph(list(tree.edges))
    if g.number_of_nodes() == 0:
        return 0
    best = 0
    for i, s in enumerate(tree.terminals):
        lengths = nx.single_source_shortest_path_length(g, s)
        for t in tree.terminals[i + 1:]:
            best = max(best, lengths[t])
    return best


def _prune_to_steiner(tree_edges, terminals) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Iteratively drop non-terminal leaves from a tree edge set."""
    adjacency: Dict[str, set] = {}
    for u, v in tree_edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    terminal_set = set(terminals)
    if not terminal_set <= set(adjacency) and len(terminal_set) > 1:
        return None
    changed = True
    while changed:
        changed = False
        for node in list(adjacency):
            if node not in terminal_set and len(adjacency[node]) == 1:
                (nb,) = adjacency[node]
                adjacency[nb].discard(node)
                del adjacency[node]
                changed = True
    edges = set()
    for u, nbrs in adjacency.items():
        for v in nbrs:
            edges.add(tuple(sorted((u, v))))
    return tuple(sorted(edges))


def _candidate_trees(
    g: nx.Graph, terminals: Sequence[str]
) -> List[Tuple[Tuple[str, str], ...]]:
    out: List[Tuple[Tuple[str, str], ...]] = []
    try:
        approx = nx_steiner_tree(g, list(terminals))
        if all(t in approx for t in terminals):
            pruned = _prune_to_steiner(list(approx.edges), terminals)
            if pruned is not None:
                out.append(pruned)
    except (nx.NetworkXError, KeyError):
        pass
    component = None
    for root in terminals:
        if root not in g:
            return out
        if component is None:
            component = set(nx.node_connected_component(g, root))
        if any(t not in component for t in terminals):
            return []
        for tree_edges in (
            list(nx.bfs_tree(g, root).edges),
            list(nx.dfs_tree(g, root).edges),
        ):
            pruned = _prune_to_steiner(tree_edges, terminals)
            if pruned:
                out.append(pruned)
    # Dedup.
    seen = set()
    unique = []
    for edges in out:
        if edges not in seen:
            seen.add(edges)
            unique.append(edges)
    return unique


def _pack_steiner_trees(
    topology: Topology,
    terminals: Sequence[str],
    max_diameter: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[SteinerTree]:
    residual = reference_graph(topology).copy()
    delta = max_diameter if max_diameter is not None else topology.num_nodes
    terminals = sorted(set(terminals))
    packed: List[SteinerTree] = []
    if len(terminals) == 1:
        return [SteinerTree((), terminals[0], tuple(terminals))]
    while limit is None or len(packed) < limit:
        candidates = [
            SteinerTree(edges, terminals[0], tuple(terminals))
            for edges in _candidate_trees(residual, terminals)
        ]
        candidates = [
            t for t in candidates if reference_terminal_diameter(t) <= delta
        ]
        if not candidates:
            break
        # Prefer the tree whose removal keeps the terminals best connected
        # (max-min residual terminal degree), breaking ties toward fewer
        # edges — this is what finds the two edge-disjoint paths of
        # Example 2.3 on the clique.
        def score(tree: SteinerTree):
            used = set(tree.edges)
            min_degree = min(
                sum(
                    1
                    for nb in residual.neighbors(t)
                    if tuple(sorted((t, nb))) not in used
                )
                for t in terminals
            )
            return (min_degree, -len(tree.edges))

        best = max(candidates, key=score)
        packed.append(best)
        if not best.edges:
            break
        residual.remove_edges_from(best.edges)
    return packed


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def scanned_deltas(topology: Topology, terminals: Sequence[str]) -> List[int]:
    """Every Δ ``optimize_delta`` or ``steiner_term`` scans (the first
    grid contains the second)."""
    lo = max(1, topology.diameter(among=terminals))
    hi = max(lo, topology.num_nodes)
    return sorted({lo, hi} | {min(hi, lo * 2**i) for i in range(12)})


def disagreements(topology: Topology, terminals: Sequence[str]) -> List[str]:
    """The Δ (and ``limit``) at which the scan and the reference differ
    on (``topology``, ``terminals``); empty = tree-for-tree equal."""
    deltas = scanned_deltas(topology, terminals)
    failed = []
    for limit in (None, 1):
        clear_all_memos()
        scanned = scan_steiner_packings(topology, terminals, deltas, limit)
        for delta, trees in zip(deltas, scanned):
            expected = _pack_steiner_trees(topology, terminals, delta, limit)
            if trees != expected:
                failed.append(f"delta={delta} limit={limit}")
            if any(
                tree.terminal_diameter() != reference_terminal_diameter(tree)
                for tree in expected
            ):
                failed.append(f"terminal_diameter at delta={delta}")
    return failed


def test_scan_equals_from_scratch_packer_on_fuzz_specs():
    print_banner(
        f"steiner differential: {len(MASTER_SEEDS)} x {COUNT} fuzz specs, "
        "Δ-scan vs one from-scratch networkx packing per Δ"
    )
    failures = []
    for master in MASTER_SEEDS:
        packed = set()
        for spec in generate_scenarios(master, COUNT):
            planner, _plan = plan_scenario(spec)
            topology, players = planner.topology, sorted(planner.players)
            if len(players) < 2:
                continue  # co-located: nothing to pack
            pair = (tuple(topology.edges()), tuple(players))
            if pair in packed:
                continue
            packed.add(pair)
            failed = disagreements(topology, players)
            if failed:
                failures.append((spec.label, failed))
        print(
            f"master seed {master}: {len(packed)} distinct "
            f"(topology, players) pairs packed both ways"
        )
    clear_all_memos()
    assert not failures, failures
