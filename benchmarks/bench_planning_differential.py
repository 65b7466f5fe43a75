"""Planning differential — dict-native min cut, Mehlhorn port, topology
builders, routes and cycle harvest against the networkx calls they
replaced.

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

Since ``Topology`` holds a plain ordered adjacency dict, five more ports
are compared the same way, live against the installed networkx: the
seeded regular graph (``random_regular_graph``, adjacency order
included), the balanced tree (``balanced_tree``), every route
(``single_source_shortest_path`` and ``is_connected``), the unweighted
``bidirectional_shortest_path`` of the Lemma E.2 harvest, and the
harvest itself (``find_disjoint_cycles`` / ``greedy_independent_set`` as
they stood on ``nx.Graph`` edits).

Run it after touching ``network/mincut.py``, ``_mehlhorn_tree`` or any
of its helpers, ``network/topology.py`` or the harvest in
``lowerbounds/core_embedding.py``, and after a networkx upgrade: a
failure of every test but the first *alone* means networkx changed a
tie-break the ports still keep — an oracle gone red, not a result moved.
"""

import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx
from networkx.algorithms.approximation import steiner_tree as nx_steiner_tree

from repro.core.memo import clear_all_memos
from repro.hypergraph import Hypergraph
from repro.lab.generate import generate_scenarios
from repro.lowerbounds.core_embedding import (
    _bidirectional_path,
    find_disjoint_cycles,
    greedy_independent_set,
)
from repro.network.mincut import mincut, mincut_partition
from repro.network.steiner import _mehlhorn_tree, scan_steiner_packings
from repro.network.topology import Topology
from repro.pipeline import build_query, plan_scenario

from bench_steiner_differential import (
    COUNT, MASTER_SEEDS, reference_graph, scanned_deltas,
)
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
            reference_graph(topology), source, t
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
    g = reference_graph(topology)
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


def reference_random_regular(degree: int, n: int, seed: int) -> nx.Graph:
    """``Topology.random_regular`` as it stood: the first connected
    ``nx.random_regular_graph`` of seeds ``seed``, ``seed + 1``, ...,
    its ``edges`` relabelled and added one by one."""
    for attempt in range(seed, seed + 64):
        drawn = nx.random_regular_graph(degree, n, seed=attempt)
        if nx.is_connected(drawn):
            g = nx.Graph()
            for u, v in drawn.edges:
                g.add_edge(Topology.player(u), Topology.player(v))
            return g
    raise RuntimeError("could not sample a connected regular graph")


def reference_balanced_tree(branching: int, depth: int) -> nx.Graph:
    g = nx.Graph()
    for u, v in nx.balanced_tree(branching, depth).edges:
        g.add_edge(Topology.player(u), Topology.player(v))
    return g


def _as_nx(hypergraph: Hypergraph) -> nx.Graph:
    """As it stood, but for the vertex order: the vertices were added
    from a *set* of strings, so the harvest moved with PYTHONHASHSEED;
    the port sorts them, and so does its reference."""
    g = nx.Graph()
    g.add_nodes_from(sorted(hypergraph.vertices, key=str))
    for name, verts in hypergraph.edges():
        vs = sorted(verts, key=str)
        if len(vs) == 2:
            g.add_edge(vs[0], vs[1], name=name)
    return g


def reference_find_disjoint_cycles(hypergraph: Hypergraph) -> List[List[str]]:
    g = _as_nx(hypergraph)
    cycles: List[List[str]] = []
    while True:
        cycle = _shortest_cycle(g)
        if cycle is None:
            return cycles
        cycles.append(cycle)
        g.remove_nodes_from(cycle)


def _shortest_cycle(g: nx.Graph) -> Optional[List[str]]:
    best: Optional[List[str]] = None
    for u, v in sorted(g.edges, key=lambda e: tuple(map(str, e))):
        g.remove_edge(u, v)
        try:
            path = nx.shortest_path(g, u, v)
        except nx.NetworkXNoPath:
            path = None
        g.add_edge(u, v)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def reference_greedy_independent_set(
    hypergraph: Hypergraph, require_degree_two: bool = True
) -> List[str]:
    g = _as_nx(hypergraph)
    out: List[str] = []
    work = g.copy()
    while work.number_of_nodes():
        v = min(work.nodes, key=lambda u: (work.degree(u), str(u)))
        out.append(v)
        neighbors = list(work.neighbors(v))
        work.remove_node(v)
        work.remove_nodes_from(neighbors)
    if require_degree_two:
        out = [v for v in out if g.degree(v) >= 2]
    return sorted(out, key=str)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def ordered(adjacency) -> List[Tuple[str, List[str]]]:
    """Both levels of an adjacency (a dict of dicts or ``nx``'s
    ``Graph.adj``) as lists, so that order counts in ``==``."""
    return [(u, list(nbrs)) for u, nbrs in adjacency.items()]


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
                residual = reference_graph(topology).copy()
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
        residual = reference_graph(topology).copy()
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


def test_random_regular_port_equals_networkx_draw_for_draw():
    print_banner(
        "regular-graph differential: Topology.random_regular vs "
        "nx.random_regular_graph, adjacency order included"
    )
    rng = random.Random(20190625)
    cases = [(64, 4, 1)]
    while len(cases) < 400:
        degree = rng.randint(2, 6)
        n = rng.randint(degree + 1, 40)
        cases.append((n + (n * degree) % 2, degree, rng.randrange(10**6)))
    failures = []
    moved_on = 0
    for n, degree, seed in cases:
        moved_on += not nx.is_connected(nx.random_regular_graph(degree, n, seed=seed))
        expected = reference_random_regular(degree, n, seed)
        topology = Topology.random_regular(degree, n, seed=seed)
        if ordered(topology.adjacency) != ordered(expected.adj):
            failures.append((n, degree, seed))
    print(f"{len(cases)} (n, degree, seed) with the same adjacency; "
          f"{moved_on} moved on from a disconnected first draw")
    assert moved_on and not failures, failures


def test_balanced_tree_port_equals_networkx():
    print_banner("balanced-tree differential: parent arithmetic vs nx.balanced_tree")
    failures = [
        (branching, depth)
        for branching in range(1, 6) for depth in range(1, 5)
        if ordered(Topology.balanced_tree(branching, depth).adjacency)
        != ordered(reference_balanced_tree(branching, depth).adj)
    ]
    print("20 (branching, depth) with the same adjacency")
    assert not failures, failures


def test_routes_equal_networkx_single_source_paths():
    print_banner(
        "route differential: Topology.shortest_path / is_connected vs "
        "nx.single_source_shortest_path / nx.is_connected"
    )
    topologies = {
        tuple(topology.edges()): topology
        for _label, topology, _players in planning_inputs()
    }
    topologies[("split",)] = Topology([("a", "b"), ("c", "d"), ("d", "e")])
    failures = []
    paths = 0
    for topology in topologies.values():
        g = reference_graph(topology)
        if topology.is_connected() != nx.is_connected(g):
            failures.append((topology.name, "connected"))
        for src in topology.adjacency:
            expected = nx.single_source_shortest_path(g, src)
            paths += len(expected)
            if expected != {
                dst: topology.shortest_path(src, dst) for dst in expected
            }:
                failures.append((topology.name, src))
    clear_all_memos()
    print(f"{len(topologies)} distinct topologies, {paths} paths node for node")
    assert paths and not failures, failures


def random_simple_graphs(seed: int, count: int) -> Iterator[Hypergraph]:
    """Sparse to dense simple graphs on up to 14 vertices, most of them
    cyclic, some disconnected, a few with a parallel hyperedge."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 14)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.sample(pairs, rng.randint(2, min(len(pairs), 2 * n)))
        chosen += rng.sample(chosen, rng.randint(0, 1))
        yield Hypergraph({
            f"E{k}": (f"v{i}", f"v{j}") for k, (i, j) in enumerate(chosen)
        })


def test_bidirectional_path_port_equals_networkx():
    print_banner(
        "bidirectional-path differential: the harvest's search vs "
        "nx.bidirectional_shortest_path"
    )
    failures = []
    found = cut_off = 0
    for hypergraph in random_simple_graphs(777, 300):
        g = _as_nx(hypergraph)
        adjacency = {u: dict.fromkeys(nbrs) for u, nbrs in g.adj.items()}
        for source in g:
            for target in g:
                if source == target:
                    continue
                try:
                    expected = nx.bidirectional_shortest_path(g, source, target)
                    found += 1
                except nx.NetworkXNoPath:
                    expected = None
                    cut_off += 1
                if _bidirectional_path(adjacency, source, target) != expected:
                    failures.append((sorted(g.edges), source, target))
    print(f"{found} paths node for node, {cut_off} pairs cut off on both sides")
    assert found and cut_off and not failures, failures[:3]


def test_cycle_harvest_equals_the_networkx_graph_edits():
    print_banner(
        "harvest differential: find_disjoint_cycles / greedy_independent_set "
        "vs the nx.Graph edits and nx.shortest_path they replaced"
    )
    hypergraphs = [
        hypergraph
        for master in MASTER_SEEDS
        for spec in generate_scenarios(master, COUNT)
        for hypergraph in [build_query(spec).query.hypergraph]
        if hypergraph.arity <= 2
    ]
    hypergraphs += random_simple_graphs(20190625, 700)
    failures = []
    cyclic = 0
    for hypergraph in hypergraphs:
        expected = reference_find_disjoint_cycles(hypergraph)
        cyclic += bool(expected)
        if find_disjoint_cycles(hypergraph) != expected:
            failures.append((sorted(hypergraph.edges()), "cycles"))
        for degree_two in (True, False):
            if greedy_independent_set(
                hypergraph, degree_two
            ) != reference_greedy_independent_set(hypergraph, degree_two):
                failures.append((sorted(hypergraph.edges()), "independent set"))
    clear_all_memos()
    print(f"{len(hypergraphs)} hypergraphs harvested both ways, {cyclic} of them cyclic")
    assert cyclic and not failures, failures[:3]
