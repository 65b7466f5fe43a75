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

The search runs on integers: G is indexed once (:class:`_Graph`), a
residual state is the set of edge ids removed so far, and every
traversal walks int lists.  Which trees the packer picks depends on how
ties break, so the order of those lists is part of the result: the
candidate generator reproduces, tie for tie, what networkx 3.6.1's
``steiner_tree`` / ``bfs_edges`` / ``dfs_edges`` return on a
``Graph.copy()`` of G minus the packed edges (the goldens in
``tests/golden/steiner_packings.json`` were written that way), without
calling networkx.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

from ..core.memo import LRUMemo, topology_key
from ..obs.counters import COUNTERS
from .topology import Topology, insertion_order_edges

Edge = Tuple[str, str]

#: ``node -> its neighbours``; the iteration order of both levels breaks
#: every tie below.
Adjacency = Mapping[str, Iterable[str]]

#: A candidate tree of the search: its edge ids, sorted (edge ids follow
#: the sorted name pairs, so this is also the order of the pairs).
EdgeIds = Tuple[int, ...]

#: A packing is a pure function of (graph, terminals, Δ, limit) and
#: dominates plan construction.  A scan whose (graph, terminals, Δ) was
#: packed before — a later ``steiner_term`` over a star's terminals, or
#: a second plan over the same identity — is a lookup per Δ; scans over
#: different terminal sets share nothing here (``wide-expander``'s three
#: scans over 3, 6 and 8 terminals all miss).  SteinerTree is frozen —
#: only the lists are copied.  (What the Δ values of *one* scan share —
#: the expanded residual states — lives on
#: :func:`scan_steiner_packings`' stack, not here.)
_PACK_MEMO = LRUMemo("steiner.pack", maxsize=4096)


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

    def parent_map(self) -> Dict[str, Optional[str]]:
        """Parent pointers toward ``root`` (root maps to None)."""
        adjacency: Dict[str, List[str]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
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
        parents = self.parent_map()
        index = {node: i for i, node in enumerate(parents)}
        parent = [
            i if up is None else index[up] for i, up in enumerate(parents.values())
        ]
        # Breadth-first discovery order, reversed and without the root:
        # every node before its parent.
        return _terminal_diameter(
            parent, range(len(parent) - 1, 0, -1), [index[t] for t in self.terminals]
        )


def _terminal_diameter(
    parent: List[int], children_first: Iterable[int], terminals: Iterable[int]
) -> int:
    """The largest tree distance between two terminals of a tree given
    as a parent list; ``children_first`` lists every node but the root,
    each before its parent.  One pass keeps, per node, its farthest
    terminal below it: two such branches meeting at a node (or one
    ending at a terminal node) make a terminal-to-terminal path."""
    below = [-1] * len(parent)
    for t in terminals:
        below[t] = 0
    best = 0
    for node in children_first:
        if below[node] < 0:
            continue  # no terminal below: no such path ends in this branch
        length = below[node] + 1
        up = parent[node]
        known = below[up]
        if known >= 0 and known + length > best:
            best = known + length
        if length > known:
            below[up] = length
    return best


# ---------------------------------------------------------------------------
# G on integers
# ---------------------------------------------------------------------------


class _Graph:
    """A graph indexed once for the search: node ``i`` is ``names[i]``
    and edge ``e`` the sorted pair ``edges[e]``.  Edge ids follow the
    sorted pairs, so a sorted tuple of ids names a sorted tuple of
    pairs.  ``walk[i]`` lists ``(neighbour, edge id)`` in the order of
    the adjacency it was built from."""

    __slots__ = ("names", "ids", "walk", "edges", "edge_at")

    def __init__(self, adjacency: Adjacency) -> None:
        self.names = list(adjacency)
        ids = self.ids = {name: i for i, name in enumerate(self.names)}
        self.edges = sorted({
            (u, v) if u < v else (v, u)
            for u, nbrs in adjacency.items() for v in nbrs
        })
        edge_id = {edge: e for e, edge in enumerate(self.edges)}
        self.walk = [
            [(ids[v], edge_id[(u, v) if u < v else (v, u)]) for v in adjacency[u]]
            for u in self.names
        ]
        n = len(self.names)
        #: ``i * n + j -> id of edge {i, j}``, both orientations.
        self.edge_at = {
            i * n + j: e for i, nbrs in enumerate(self.walk) for j, e in nbrs
        }

    def residual(self, removed: FrozenSet[int]) -> List[List[int]]:
        """Each node's neighbours in ``G - removed``.  Dropping edges
        keeps the survivors' relative order, so this is the order the
        whole graph's lists had, filtered."""
        return [[v for v, e in nbrs if e not in removed] for nbrs in self.walk]

    def edge_names(self, edges: EdgeIds) -> Tuple[Edge, ...]:
        return tuple(self.edges[e] for e in edges)


def _topology_graph(topology: Topology) -> _Graph:
    """G indexed in the order ``nx.Graph.copy()`` would hold it: nodes
    as in ``topology.adjacency``, each neighbour list in first-touch
    order of a walk over G's edges (not G's own order — ties break
    differently).  Built once per topology and kept on it, beside
    its :func:`~repro.core.memo.topology_key`."""
    graph = getattr(topology, "_steiner_graph", None)
    if graph is None:
        walk: Dict[str, Dict[str, None]] = {node: {} for node in topology.adjacency}
        for u, nbrs in topology.adjacency.items():
            for v in nbrs:
                walk[u][v] = walk[v][u] = None
        graph = topology._steiner_graph = _Graph(walk)
    return graph


def _checked_terminals(topology: Topology, terminals: Iterable[str]) -> Tuple[str, ...]:
    """``K`` sorted and deduplicated.

    Raises:
        ValueError: ``K`` is empty or names a player not in G.
    """
    checked = tuple(sorted(set(terminals)))
    if not checked:
        raise ValueError("no terminals: a Steiner tree needs at least one player")
    for terminal in checked:
        if terminal not in topology:
            raise ValueError(f"player not in topology: {terminal!r}")
    return checked


# ---------------------------------------------------------------------------
# Spanning trees, as parent lists (the root is its own parent, -1 = unreached)
# ---------------------------------------------------------------------------


def _bfs_parents(adjacency, root: int, wanted: bytearray) -> List[int]:
    """The breadth-first spanning tree from ``root`` (the tree of
    ``nx.bfs_edges``); ``adjacency`` maps each node id to its neighbour
    ids.  The search stops once it has reached every node ``wanted``
    marks: their paths to the root — all a Steiner subtree reads — are
    fixed when they are found."""
    parent = [-1] * len(wanted)
    parent[root] = root
    left = wanted.count(1) - wanted[root]
    queue = [root]
    for node in queue:
        for nb in adjacency[node]:
            if parent[nb] < 0:
                parent[nb] = node
                if wanted[nb]:
                    left -= 1
                    if not left:
                        return parent
                queue.append(nb)
    return parent


def _dfs_parents(
    adjacency: List[List[int]], root: int, wanted: bytearray
) -> List[int]:
    """As :func:`_bfs_parents` for the depth-first spanning tree (the
    tree of ``nx.dfs_edges``)."""
    parent = [-1] * len(wanted)
    parent[root] = root
    left = wanted.count(1) - wanted[root]
    node, children = root, iter(adjacency[root])
    stack = []
    while True:
        for child in children:
            if parent[child] < 0:
                parent[child] = node
                if wanted[child]:
                    left -= 1
                    if not left:
                        return parent
                stack.append((node, children))
                node, children = child, iter(adjacency[child])
                break
        else:
            if not stack:
                return parent
            node, children = stack.pop()


def _steiner_subtree(
    graph: _Graph, parent: List[int], terminals: Sequence[int]
) -> Tuple[EdgeIds, int, List[int]]:
    """The Steiner tree inside a spanning tree rooted at a terminal:
    what is left once every non-terminal leaf is dropped is the union of
    the terminals' paths to the root.  Returns its sorted edge ids, its
    terminal diameter and every node's degree in it."""
    n = len(parent)
    edge_at = graph.edge_at
    on_tree = bytearray(n)
    degree = [0] * n
    edges = []
    walks = []
    for node in terminals:
        walk = []
        while not on_tree[node]:
            on_tree[node] = 1
            up = parent[node]
            if up == node:
                break
            edges.append(edge_at[node * n + up])
            degree[node] += 1
            degree[up] += 1
            walk.append(node)
            node = up
        walks.append(walk)
    edges.sort()
    # Each walk up stops below a node an earlier walk took, so the walks
    # in reverse order list every node but the root children first.
    diameter = _terminal_diameter(
        parent, chain.from_iterable(reversed(walks)), terminals
    )
    return tuple(edges), diameter, degree


# ---------------------------------------------------------------------------
# Mehlhorn's approximation
# ---------------------------------------------------------------------------


def _add_edge(graph: Dict[int, Dict[int, int]], u: int, v: int, weight: int) -> None:
    """``nx.Graph.add_edge`` on a dict of dicts: new nodes and new
    neighbours go last, an existing edge keeps its place."""
    graph.setdefault(u, {})
    graph.setdefault(v, {})
    graph[u][v] = graph[v][u] = weight


def _kruskal(graph: Dict[int, Dict[int, int]]) -> Iterator[Tuple[int, int]]:
    """Minimum spanning tree edges of a weighted dict of dicts, ties
    kept in :func:`insertion_order_edges` order
    (``nx.minimum_spanning_edges``)."""
    leader = {node: node for node in graph}

    def find(node: int) -> int:
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


def _bidirectional_path(
    adjacency: List[List[int]], source: int, target: int
) -> List[int]:
    """The path ``nx.shortest_path(G, source, target, weight=...)``
    returns at unit weights.  That is ``bidirectional_dijkstra``: it
    scans one node per step, alternating between the two ends, keeps
    the best meeting node seen so far and stops at the first node
    scanned from both ends.  Its ``(distance, push counter)`` heaps pop
    in push order when every edge weighs one, hence the queues."""
    n = len(adjacency)
    preds = ([-1] * n, [-1] * n)
    seen = ([-1] * n, [-1] * n)
    seen[0][source] = seen[1][target] = 0
    scanned = (bytearray(n), bytearray(n))
    fringe = (deque([source]), deque([target]))
    shortest = meeting = -1
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        node = fringe[direction].popleft()
        scanned[direction][node] = 1
        if scanned[1 - direction][node]:
            break
        mine, theirs, pred = seen[direction], seen[1 - direction], preds[direction]
        length = mine[node] + 1
        for nb in adjacency[node]:
            if mine[nb] < 0:
                mine[nb] = length
                pred[nb] = node
                fringe[direction].append(nb)
                if theirs[nb] >= 0:
                    through = length + theirs[nb]
                    if shortest < 0 or through < shortest:
                        shortest, meeting = through, nb
    path = []
    node = meeting
    while node >= 0:
        path.append(node)
        node = preds[0][node]
    path.reverse()
    node = preds[1][meeting]
    while node >= 0:
        path.append(node)
        node = preds[1][node]
    return path


def _mehlhorn_parents(
    adjacency: List[List[int]], terminals: Sequence[int], wanted: bytearray
) -> Optional[List[int]]:
    """Mehlhorn's 2-approximate Steiner tree as a parent list rooted at
    ``terminals[0]`` (``wanted`` marks the terminals): a port of
    networkx 3.6.1's ``_mehlhorn_steiner_tree`` to unit weights and
    ordered lists that breaks every tie the way it does, so the greedy
    packer's first candidate does not depend on the installed networkx.
    ``terminals`` must be connected in ``adjacency``.  None where
    networkx raises ``KeyError``: a node cut off from every terminal (it
    indexes every node by its nearest terminal)."""
    n = len(adjacency)
    # Nearest terminal of every node: Dijkstra from all terminals at
    # once, which at unit weights is a BFS seeded in terminal order.
    nearest = [-1] * n
    distance = [0] * n
    for t in terminals:
        nearest[t] = t
    queue = list(terminals)
    for node in queue:
        near, length = nearest[node], distance[node] + 1
        for nb in adjacency[node]:
            if nearest[nb] < 0:
                nearest[nb] = near
                distance[nb] = length
                queue.append(nb)
    if len(queue) < n:
        return None
    # G1': terminals joined where their Voronoi regions touch, weighted
    # by the shortest path through the touching edge.  Edges inside a
    # region would be self-loops: they never enter a spanning tree, and
    # their place among a node's neighbours moves no other edge, but the
    # first one fixes where its terminal enters G1' — and with it the
    # order of Kruskal's ties.  (Node ids follow G's node order, so
    # ``v > u`` is ``insertion_order_edges``' "not yet a first
    # endpoint".)
    closure: Dict[int, Dict[int, int]] = {}
    for u in range(n):
        near_u, to_u = nearest[u], distance[u] + 1
        for v in adjacency[u]:
            if v > u:
                near_v = nearest[v]
                if near_v == near_u:
                    if near_u not in closure:
                        closure[near_u] = {}
                    continue
                weight = to_u + distance[v]
                known = closure.get(near_u, {}).get(near_v)
                if known is None or weight < known:
                    _add_edge(closure, near_u, near_v, weight)
    # G3: a shortest path per spanning-tree edge of G1'.  Its own
    # spanning tree drops the cycles overlapping paths close, and the
    # Steiner subtree of that the leaves they leave behind.
    paths: Dict[int, Dict[int, int]] = {}
    for u, v in _kruskal(closure):
        path = _bidirectional_path(adjacency, u, v)
        for a, b in zip(path, path[1:]):
            _add_edge(paths, a, b, 1)
    tree: Dict[int, Dict[int, int]] = {}
    for u, v in _kruskal(paths):
        _add_edge(tree, u, v, 1)
    return _bfs_parents(tree, terminals[0], wanted)


def _expand_state(
    graph: _Graph, terminals: Sequence[int], removed: FrozenSet[int]
) -> List[Tuple[EdgeIds, int, Tuple[int, int]]]:
    """``(edge ids, terminal diameter, score)`` per candidate Steiner
    tree of the residual graph ``graph - removed``: Mehlhorn's
    approximation, then the BFS and the DFS spanning tree rooted at each
    terminal, each cut down to its Steiner subtree; duplicates collapse,
    the first kept.

    BFS trees are shallow (good Δ), DFS trees are path-like (they spread
    edge usage, which is what lets the greedy packer find multiple
    edge-disjoint trees on well-connected graphs like the Figure 2
    clique).  The score prefers the tree whose removal keeps the
    terminals best connected (max-min residual terminal degree),
    breaking ties toward fewer edges — this is what finds the two
    edge-disjoint paths of Example 2.3 on the clique.  Empty when the
    graph leaves two terminals disconnected — the last, failing step of
    every packing."""
    adjacency = graph.residual(removed)
    wanted = bytearray(len(adjacency))
    for t in terminals:
        wanted[t] = 1
    first = _bfs_parents(adjacency, terminals[0], wanted)
    if any(first[t] < 0 for t in terminals):
        return []
    # The Mehlhorn port runs only once the terminals are known to be
    # connected; a node cut off from all of them costs this one
    # candidate, and the state goes on without it.
    spanning = [_mehlhorn_parents(adjacency, terminals, wanted), first]
    for root in terminals:
        if root != terminals[0]:
            spanning.append(_bfs_parents(adjacency, root, wanted))
        spanning.append(_dfs_parents(adjacency, root, wanted))
    seen = set()
    expanded = []
    for parent in spanning:
        if parent is None:
            continue
        edges, diameter, used = _steiner_subtree(graph, parent, terminals)
        if edges not in seen:
            seen.add(edges)
            left = min(len(adjacency[t]) - used[t] for t in terminals)
            expanded.append((edges, diameter, (left, -len(edges))))
    return expanded


def _candidate_trees(
    adjacency: Adjacency, terminals: Sequence[str]
) -> List[Tuple[Edge, ...]]:
    """The candidate trees of :func:`_expand_state` on an adjacency
    mapping (node -> neighbours, both in a fixed order), as sorted
    pairs.  Empty when the graph lacks a terminal or leaves two of them
    disconnected."""
    graph = _Graph(adjacency)
    if any(t not in graph.ids for t in terminals):
        return []
    found = _expand_state(graph, [graph.ids[t] for t in terminals], frozenset())
    return [graph.edge_names(edges) for edges, _diameter, _score in found]


def _mehlhorn_tree(
    adjacency: Adjacency, terminals: Sequence[str]
) -> Tuple[Edge, ...]:
    """Mehlhorn's tree (:func:`_mehlhorn_parents`) on an adjacency
    mapping, cut down to its Steiner subtree, as sorted pairs.

    Raises:
        KeyError: a node is cut off from every terminal, as in networkx.
    """
    graph = _Graph(adjacency)
    ids = [graph.ids[t] for t in terminals]
    wanted = bytearray(len(graph.names))
    for t in ids:
        wanted[t] = 1
    parent = _mehlhorn_parents(graph.residual(frozenset()), ids, wanted)
    if parent is None:
        raise KeyError("a node is cut off from every terminal")
    return graph.edge_names(_steiner_subtree(graph, parent, ids)[0])


# ---------------------------------------------------------------------------
# The packer
# ---------------------------------------------------------------------------


def find_steiner_tree(
    topology: Topology,
    terminals: Sequence[str],
    graph: Optional[Adjacency] = None,
) -> Optional[SteinerTree]:
    """One Steiner tree for ``terminals`` in ``graph``, an adjacency
    mapping (default: all of G).

    Returns None when the terminals are not connected in the residual
    graph (or it lacks one of them).

    Raises:
        ValueError: ``terminals`` is empty or names a player not in G.
    """
    terminals = _checked_terminals(topology, terminals)
    if len(terminals) == 1:
        return SteinerTree((), terminals[0], terminals)
    candidates = _candidate_trees(
        graph if graph is not None else topology.adjacency, terminals
    )
    if not candidates:
        return None
    return SteinerTree(candidates[0], terminals[0], terminals)


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

    Raises:
        ValueError: ``terminals`` is empty or names a player not in G.
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

    Raises:
        ValueError: ``terminals`` is empty or names a player not in G.
    """
    terminals = _checked_terminals(topology, terminals)
    states: Dict[FrozenSet[int], list] = {}
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
    states: Dict[FrozenSet[int], list],
) -> List[SteinerTree]:
    if len(terminals) == 1:
        return [SteinerTree((), terminals[0], terminals)]
    delta = max_diameter if max_diameter is not None else topology.num_nodes
    graph = _topology_graph(topology)
    ids = [graph.ids[t] for t in terminals]
    packed: List[SteinerTree] = []
    removed: FrozenSet[int] = frozenset()
    while limit is None or len(packed) < limit:
        expanded = states.get(removed)
        if expanded is None:
            expanded = states[removed] = _expand_state(graph, ids, removed)
            COUNTERS.increment("steiner.states_expanded")
        else:
            COUNTERS.increment("steiner.states_shared")
        # The first best-scoring candidate within Δ, in candidate order.
        best = best_score = None
        for edges, diameter, score in expanded:
            if diameter <= delta and (best is None or score > best_score):
                best, best_score = edges, score
        if best is None:
            break
        packed.append(SteinerTree(graph.edge_names(best), terminals[0], terminals))
        removed = removed.union(best)
    return packed


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
        ValueError: if ``terminals`` is empty or names a player not in
            G, or no Steiner tree connects them at all.
    """
    terminals = _checked_terminals(topology, terminals)
    lo = max(1, topology.diameter(among=terminals))
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
            f"no Steiner tree connects terminals {list(terminals)}"
        )
    return best
