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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import networkx as nx
from networkx.algorithms.approximation import steiner_tree as nx_steiner_tree

from ..core.memo import LRUMemo, topology_key
from ..obs.counters import COUNTERS
from .topology import Topology

Edge = Tuple[str, str]

#: A packing is a pure function of (graph, terminals, Δ, limit) and
#: dominates plan construction; the protocol compiler and the bound
#: formulas both scan the same Δ grids, so the second scan is a lookup
#: per Δ.  SteinerTree is frozen — only the lists are copied.
#: (What the Δ values of *one* scan share — the expanded residual states
#: — lives on :func:`scan_steiner_packings`' stack, not here.)
_PACK_MEMO = LRUMemo("steiner.pack", maxsize=4096)


def _bfs_edges(
    adjacency: Mapping[str, Iterable[str]], root: str
) -> Iterator[Edge]:
    """``(parent, child)`` in breadth-first discovery order from ``root``
    (the edges, and the order, of ``nx.bfs_edges``)."""
    seen = {root}
    queue = [root]
    for node in queue:
        for nb in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
                yield node, nb


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
            distance = {source: 0}
            for parent, child in _bfs_edges(adjacency, source):
                distance[child] = distance[parent] + 1
            return max((distance[t], t) for t in self.terminals)

        # Two sweeps: in a tree metric the terminal farthest from any
        # node is one end of a farthest terminal pair.
        _, end = farthest_terminal(self.terminals[0])
        return farthest_terminal(end)[0]


def _prune_to_steiner(tree_edges, terminals) -> Tuple[Edge, ...]:
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


def _candidate_trees(
    g: nx.Graph, terminals: Sequence[str]
) -> List[Tuple[Edge, ...]]:
    """Candidate Steiner trees in ``g``: the metric-closure approximation
    plus pruned BFS and DFS spanning trees rooted at each terminal.

    BFS trees are shallow (good Δ), DFS trees are path-like (they spread
    edge usage, which is what lets the greedy packer find multiple
    edge-disjoint trees on well-connected graphs like the Figure 2
    clique).  Empty when ``g`` lacks a terminal or leaves two of them
    disconnected — the last, failing step of every packing."""
    adjacency = dict(g.adjacency())
    if any(t not in adjacency for t in terminals):
        return []
    reached = {child for _, child in _bfs_edges(adjacency, terminals[0])}
    if not reached.issuperset(terminals[1:]):
        return []
    out: List[Tuple[Edge, ...]] = []
    try:
        out.append(
            _prune_to_steiner(nx_steiner_tree(g, list(terminals)).edges, terminals)
        )
    except (nx.NetworkXError, KeyError):
        # Mehlhorn's construction indexes every node of ``g`` by its
        # nearest terminal: a node the residual graph cuts off from all
        # of them is a KeyError, and the packing goes on without this
        # candidate.
        pass
    for root in terminals:
        out.append(_prune_to_steiner(_bfs_edges(adjacency, root), terminals))
        out.append(_prune_to_steiner(nx.dfs_edges(g, root), terminals))
    return list(dict.fromkeys(out))


def find_steiner_tree(
    topology: Topology, terminals: Sequence[str], graph: Optional[nx.Graph] = None
) -> Optional[SteinerTree]:
    """One Steiner tree for ``terminals`` in ``graph`` (default: all of G).

    Returns None when the terminals are not connected in the residual
    graph.
    """
    g = graph if graph is not None else topology.graph
    terminals = sorted(set(terminals))
    if len(terminals) == 1:
        return SteinerTree((), terminals[0], tuple(terminals))
    candidates = _candidate_trees(g, terminals)
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
    residual = topology.graph.copy()
    residual.remove_edges_from(removed)
    degree = dict(residual.degree(terminals))
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
