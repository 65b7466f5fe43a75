"""Steiner trees and edge-disjoint Steiner tree packing.

Implements Definition 3.8 (Steiner trees for a terminal set ``K``),
Definition 3.9 (``ST(G, K, Δ)``: the maximum number of edge-disjoint
Steiner trees of terminal diameter at most Δ) and the workhorse behind
Theorem 3.11's set-intersection protocol: the packing determines how an
N-bit vector is split into parallel aggregation channels.

The packer is greedy — Theorem 3.10 (Lau) guarantees Ω(MinCut(G, K))
edge-disjoint trees exist at unbounded diameter, and the greedy packer
achieves that order on the paper's topologies (lines, cliques, grids,
regular graphs); benches check shape, not exact constants.

Everything below walks plain adjacency dicts.  Which trees the packer
picks depends on how ties break, so the order of those dicts is part of
the result: the candidate generator reproduces, tie for tie, what
networkx 3.6.1's ``steiner_tree`` / ``bfs_edges`` / ``dfs_edges`` return
on a ``Graph.copy()`` of G minus the packed edges (the goldens in
``tests/golden/steiner_packings.json`` were written that way), without
calling networkx.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..core.memo import LRUMemo, topology_key
from ..obs.counters import COUNTERS
from .topology import Topology, insertion_order_edges

Edge = Tuple[str, str]

#: ``node -> its neighbours``; the iteration order of both levels breaks
#: every tie below.
Adjacency = Mapping[str, Iterable[str]]

#: A packing is a pure function of (graph, terminals, Δ, limit) and
#: dominates plan construction; the protocol compiler and the bound
#: formulas both scan the same Δ grids, so the second scan is a lookup
#: per Δ.  SteinerTree is frozen — only the lists are copied.
#: (What the Δ values of *one* scan share — the expanded residual states
#: — lives on :func:`scan_steiner_packings`' stack, not here.)
_PACK_MEMO = LRUMemo("steiner.pack", maxsize=4096)


def _bfs_parents(adjacency: Adjacency, root: str) -> Dict[str, Optional[str]]:
    """Parent pointers of the breadth-first spanning tree from ``root``
    (the tree of ``nx.bfs_edges``), in discovery order; the root maps to
    None."""
    parents: Dict[str, Optional[str]] = {root: None}
    queue = [root]
    for node in queue:
        for nb in adjacency[node]:
            if nb not in parents:
                parents[nb] = node
                queue.append(nb)
    return parents


def _dfs_parents(adjacency: Adjacency, root: str) -> Dict[str, Optional[str]]:
    """As :func:`_bfs_parents` for the depth-first spanning tree (the
    tree of ``nx.dfs_edges``)."""
    parents: Dict[str, Optional[str]] = {root: None}
    stack = [(root, iter(adjacency[root]))]
    while stack:
        parent, children = stack[-1]
        for child in children:
            if child not in parents:
                parents[child] = parent
                stack.append((child, iter(adjacency[child])))
                break
        else:
            stack.pop()
    return parents


@dataclass(frozen=True)
class SteinerTree:
    """One Steiner tree: edges plus a designated root.

    Attributes:
        edges: Tree edges, each a sorted pair.
        root: The terminal the protocols aggregate toward.
        terminals: The terminal set ``K`` it spans.
    """

    edges: Tuple[Edge, ...]
    root: str
    terminals: Tuple[str, ...]

    @property
    def nodes(self) -> set:
        out = set()
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        if not out:
            out = {self.root}
        return out

    def _adjacency(self) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        return adjacency

    def parent_map(self) -> Dict[str, Optional[str]]:
        """Parent pointers toward ``root`` (root maps to None)."""
        adjacency = self._adjacency()
        parents: Dict[str, Optional[str]] = {self.root: None}
        frontier = [self.root]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in sorted(adjacency.get(node, ())):
                    if nb not in parents:
                        parents[nb] = node
                        nxt.append(nb)
            frontier = nxt
        return parents

    def depth(self) -> int:
        """Maximum hop count from any tree node to the root."""
        parents = self.parent_map()
        best = 0
        for node in parents:
            d = 0
            cur = node
            while parents[cur] is not None:
                cur = parents[cur]
                d += 1
            best = max(best, d)
        return best

    def terminal_diameter(self) -> int:
        """Max tree distance between two terminals (Definition 3.9's Δ)."""
        if not self.edges:
            return 0
        adjacency = self._adjacency()

        def farthest_terminal(source: str) -> Tuple[int, str]:
            distance: Dict[str, int] = {}
            for node, parent in _bfs_parents(adjacency, source).items():
                distance[node] = 0 if parent is None else distance[parent] + 1
            return max((distance[t], t) for t in self.terminals)

        # Two sweeps: in a tree metric the terminal farthest from any
        # node is one end of a farthest terminal pair.
        _, end = farthest_terminal(self.terminals[0])
        return farthest_terminal(end)[0]


def _steiner_subtree(
    parents: Mapping[str, Optional[str]], terminals: Sequence[str]
) -> Tuple[Edge, ...]:
    """The Steiner tree inside a tree given as parent pointers, rooted
    at a terminal and spanning ``terminals``: what is left once every
    non-terminal leaf is dropped is the union of the terminals' paths to
    the root.  Returned as sorted pairs, sorted."""
    on_tree = set()
    edges = []
    for node in terminals:
        while node not in on_tree:
            on_tree.add(node)
            parent = parents[node]
            if parent is None:
                break
            edges.append((node, parent) if node < parent else (parent, node))
            node = parent
    return tuple(sorted(edges))


def _add_edge(graph: Dict[str, Dict[str, int]], u: str, v: str, weight: int) -> None:
    """``nx.Graph.add_edge`` on a dict of dicts: new nodes and new
    neighbours go last, an existing edge keeps its place."""
    graph.setdefault(u, {})
    graph.setdefault(v, {})
    graph[u][v] = graph[v][u] = weight


def _kruskal(graph: Dict[str, Dict[str, int]]) -> Iterator[Edge]:
    """Minimum spanning tree edges of a weighted dict of dicts, ties
    kept in :func:`insertion_order_edges` order
    (``nx.minimum_spanning_edges``)."""
    leader = {node: node for node in graph}

    def find(node: str) -> str:
        while leader[node] != node:
            leader[node] = node = leader[leader[node]]
        return node

    for u, v in sorted(
        insertion_order_edges(graph), key=lambda edge: graph[edge[0]][edge[1]]
    ):
        root_u, root_v = find(u), find(v)
        if root_u != root_v:
            leader[root_u] = root_v
            yield u, v


def _bidirectional_path(adjacency: Adjacency, source: str, target: str) -> List[str]:
    """The path ``nx.shortest_path(G, source, target, weight=...)``
    returns at unit weights.  That is ``bidirectional_dijkstra``: it
    scans one node per step, alternating between the two ends, keeps
    the best meeting node seen so far and stops at the first node
    scanned from both ends.  Its ``(distance, push counter)`` heaps pop
    in push order when every edge weighs one, hence the queues."""
    preds: Tuple[Dict[str, Optional[str]], ...] = ({source: None}, {target: None})
    seen = ({source: 0}, {target: 0})
    scanned: Tuple[set, set] = (set(), set())
    fringe = (deque([source]), deque([target]))
    shortest = meeting = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        node = fringe[direction].popleft()
        scanned[direction].add(node)
        if node in scanned[1 - direction]:
            break
        length = seen[direction][node] + 1
        for nb in adjacency[node]:
            if nb not in seen[direction]:
                seen[direction][nb] = length
                preds[direction][nb] = node
                fringe[direction].append(nb)
                if nb in seen[1 - direction]:
                    through = length + seen[1 - direction][nb]
                    if shortest is None or through < shortest:
                        shortest, meeting = through, nb
    path = []
    node = meeting
    while node is not None:
        path.append(node)
        node = preds[0][node]
    path.reverse()
    node = preds[1][meeting]
    while node is not None:
        path.append(node)
        node = preds[1][node]
    return path


def _mehlhorn_tree(
    adjacency: Adjacency, terminals: Sequence[str]
) -> Tuple[Edge, ...]:
    """Mehlhorn's 2-approximate Steiner tree: a port of networkx 3.6.1's
    ``_mehlhorn_steiner_tree`` to unit weights and ordered dicts that
    breaks every tie the way it does, so the greedy packer's first
    candidate does not depend on the installed networkx.  ``terminals``
    must be connected in ``adjacency``.

    Raises:
        KeyError: a node is cut off from every terminal (networkx
            indexes every node by its nearest terminal).
    """
    # Nearest terminal of every node: Dijkstra from all terminals at
    # once, which at unit weights is a BFS seeded in terminal order.
    nearest = {t: t for t in terminals}
    distance = {t: 0 for t in terminals}
    queue = list(terminals)
    for node in queue:
        for nb in adjacency[node]:
            if nb not in nearest:
                nearest[nb] = nearest[node]
                distance[nb] = distance[node] + 1
                queue.append(nb)
    for node in adjacency:
        if node not in nearest:
            raise KeyError(node)
    # G1': terminals joined where their Voronoi regions touch, weighted
    # by the shortest path through the touching edge.  Edges inside a
    # region become self-loops; they never enter a spanning tree but
    # they fix G1's node order, and with it the order of Kruskal's ties.
    closure: Dict[str, Dict[str, int]] = {}
    for u, v in insertion_order_edges(adjacency):
        near_u, near_v = nearest[u], nearest[v]
        weight = distance[u] + 1 + distance[v]
        known = closure.get(near_u, {}).get(near_v)
        _add_edge(
            closure, near_u, near_v, weight if known is None else min(weight, known)
        )
    # G3: a shortest path per spanning-tree edge of G1'.  Its own
    # spanning tree drops the cycles overlapping paths close, and the
    # Steiner subtree of that the leaves they leave behind.
    paths: Dict[str, Dict[str, int]] = {}
    for u, v in _kruskal(closure):
        path = _bidirectional_path(adjacency, u, v)
        for a, b in zip(path, path[1:]):
            _add_edge(paths, a, b, 1)
    tree: Dict[str, Dict[str, int]] = {}
    for u, v in _kruskal(paths):
        _add_edge(tree, u, v, 1)
    return _steiner_subtree(_bfs_parents(tree, terminals[0]), terminals)


def _candidate_trees(
    adjacency: Adjacency, terminals: Sequence[str]
) -> List[Tuple[Edge, ...]]:
    """Candidate Steiner trees in the graph ``adjacency`` (node ->
    neighbours, both in a fixed order): Mehlhorn's approximation, then
    the BFS and the DFS spanning tree rooted at each terminal, each cut
    down to its Steiner subtree.

    BFS trees are shallow (good Δ), DFS trees are path-like (they spread
    edge usage, which is what lets the greedy packer find multiple
    edge-disjoint trees on well-connected graphs like the Figure 2
    clique).  Empty when the graph lacks a terminal or leaves two of
    them disconnected — the last, failing step of every packing."""
    if any(t not in adjacency for t in terminals):
        return []
    reached = _bfs_parents(adjacency, terminals[0])
    if any(t not in reached for t in terminals):
        return []
    out: List[Tuple[Edge, ...]] = []
    try:
        out.append(_mehlhorn_tree(adjacency, terminals))
    except KeyError:
        # A node the residual graph cuts off from every terminal: the
        # packing goes on without this candidate.
        pass
    for root in terminals:
        out.append(_steiner_subtree(_bfs_parents(adjacency, root), terminals))
        out.append(_steiner_subtree(_dfs_parents(adjacency, root), terminals))
    return list(dict.fromkeys(out))


def find_steiner_tree(
    topology: Topology,
    terminals: Sequence[str],
    graph: Optional[Adjacency] = None,
) -> Optional[SteinerTree]:
    """One Steiner tree for ``terminals`` in ``graph``, an adjacency
    mapping (default: all of G).

    Returns None when the terminals are not connected in the residual
    graph.
    """
    adjacency = graph if graph is not None else topology.adjacency
    terminals = sorted(set(terminals))
    if len(terminals) == 1:
        return SteinerTree((), terminals[0], tuple(terminals))
    candidates = _candidate_trees(adjacency, terminals)
    if not candidates:
        return None
    edges = candidates[0]
    return SteinerTree(tuple(edges), terminals[0], tuple(terminals))


def pack_steiner_trees(
    topology: Topology,
    terminals: Sequence[str],
    max_diameter: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[SteinerTree]:
    """Greedy edge-disjoint Steiner tree packing (Definition 3.9).

    Repeatedly extracts a Steiner tree from the residual graph, keeping
    only trees whose terminal diameter is within ``max_diameter``: a
    Δ-scan of length one (:func:`scan_steiner_packings`).

    Args:
        topology: The communication graph.
        terminals: The terminal set ``K``.
        max_diameter: The Δ bound (None = |V|, i.e. unbounded).
        limit: Optional cap on the number of trees.

    Returns:
        A (possibly empty) list of edge-disjoint Steiner trees.
    """
    return scan_steiner_packings(topology, terminals, [max_diameter], limit)[0]


def scan_steiner_packings(
    topology: Topology,
    terminals: Sequence[str],
    deltas: Sequence[Optional[int]],
    limit: Optional[int] = None,
) -> List[List[SteinerTree]]:
    """The greedy packing at each Δ of ``deltas``, in that order.

    The candidate trees of a greedy step, their terminal diameters and
    their scores depend on the residual graph and the terminals, never
    on Δ — Δ only filters them — so the scan expands each residual
    state (keyed by the set of edges removed so far) once and every Δ
    that reaches it reuses the expansion.  Each packing is memoized on
    its structural inputs (edge set, terminals, Δ, limit) — it is
    deterministic, so a hit returns a fresh list of the same frozen
    trees.
    """
    terminals = tuple(sorted(set(terminals)))
    states: Dict[FrozenSet[Edge], list] = {}
    return [
        list(_PACK_MEMO.get_or_compute(
            (topology_key(topology), terminals, delta, limit),
            lambda: _greedy_packing(topology, terminals, delta, limit, states),
        ))
        for delta in deltas
    ]


def _greedy_packing(
    topology: Topology,
    terminals: Tuple[str, ...],
    max_diameter: Optional[int],
    limit: Optional[int],
    states: Dict[FrozenSet[Edge], list],
) -> List[SteinerTree]:
    if len(terminals) == 1:
        return [SteinerTree((), terminals[0], terminals)]
    delta = max_diameter if max_diameter is not None else topology.num_nodes
    packed: List[SteinerTree] = []
    removed: FrozenSet[Edge] = frozenset()
    while limit is None or len(packed) < limit:
        expanded = states.get(removed)
        if expanded is None:
            expanded = states[removed] = _expand_state(topology, terminals, removed)
            COUNTERS.increment("steiner.states_expanded")
        else:
            COUNTERS.increment("steiner.states_shared")
        within = [
            (score, tree) for tree, diameter, score in expanded if diameter <= delta
        ]
        if not within:
            break
        # The first best-scoring candidate, in candidate order.
        _, best = max(within, key=lambda scored: scored[0])
        packed.append(best)
        removed = removed.union(best.edges)
    return packed


def _expand_state(
    topology: Topology, terminals: Tuple[str, ...], removed: FrozenSet[Edge]
) -> List[Tuple[SteinerTree, int, Tuple[int, int]]]:
    """``(tree, terminal diameter, score)`` per candidate tree of the
    residual graph ``topology - removed``.

    The score prefers the tree whose removal keeps the terminals best
    connected (max-min residual terminal degree), breaking ties toward
    fewer edges — this is what finds the two edge-disjoint paths of
    Example 2.3 on the clique.
    """
    # The residual graph in the order ``nx.Graph.copy()`` would hold it:
    # nodes as in G, each neighbour list in first-touch order of a walk
    # over G's edges (not G's own order — ties break differently).
    residual: Dict[str, Dict[str, None]] = {node: {} for node in topology.adjacency}
    for u, nbrs in topology.adjacency.items():
        for v in nbrs:
            if ((u, v) if u < v else (v, u)) not in removed:
                residual[u][v] = residual[v][u] = None
    degree = {t: len(residual[t]) for t in terminals}
    expanded = []
    for edges in _candidate_trees(residual, terminals):
        tree = SteinerTree(edges, terminals[0], terminals)
        used = Counter(node for edge in edges for node in edge)
        min_degree = min(degree[t] - used[t] for t in terminals)
        expanded.append((tree, tree.terminal_diameter(), (min_degree, -len(edges))))
    return expanded


def st_value(
    topology: Topology, terminals: Sequence[str], max_diameter: Optional[int] = None
) -> int:
    """``ST(G, K, Δ)`` as achieved by the greedy packer."""
    return len(pack_steiner_trees(topology, terminals, max_diameter))


def optimize_delta(
    topology: Topology,
    terminals: Sequence[str],
    total_words: int,
) -> Tuple[int, List[SteinerTree], int]:
    """Minimize ``ceil(total_words / ST(G,K,Δ)) + Δ`` over Δ (Theorem 3.11).

    Scans Δ over the terminal diameter up to |V| on a geometric grid (the
    objective is unimodal enough in practice; benches sweep Δ exhaustively
    for the ablation).

    Returns:
        ``(delta, trees, predicted_rounds)`` for the best Δ found; the
        ``trees`` list is the packing to run the protocol over.

    Raises:
        ValueError: if no Steiner tree connects the terminals at all.
    """
    lo = topology.diameter(among=sorted(set(terminals))) if len(set(terminals)) > 1 else 1
    lo = max(1, lo)
    hi = max(lo, topology.num_nodes)
    candidates = sorted(
        {lo, hi}
        | {min(hi, lo * (2**i)) for i in range(0, 12)}
    )
    best: Optional[Tuple[int, List[SteinerTree], int]] = None
    packings = scan_steiner_packings(topology, terminals, candidates)
    for delta, trees in zip(candidates, packings):
        if not trees:
            continue
        rounds = -(-total_words // len(trees)) + delta
        if best is None or rounds < best[2]:
            best = (delta, trees, rounds)
    if best is None:
        raise ValueError(
            f"no Steiner tree connects terminals {sorted(set(terminals))}"
        )
    return best
