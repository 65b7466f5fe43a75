"""Embedding TRIBES into cyclic cores — Theorem 4.4 / Lemma E.2.

Lemma E.2: the core ``C(H)`` of a simple graph either contains many
vertex-disjoint short cycles (found here by repeated shortest-cycle
extraction, the constructive form of Moore's bound) or a large independent
set (greedy min-degree removal, the constructive form of Turán's theorem).

* **Cycle case**: each set pair ``(S_i, T_i)`` is re-encoded over
  ``[√N] x [√N]``; ``R_{S_i}`` sits on cycle edge ``(c1, c2)``,
  ``R_{T_i}`` (coordinates reversed) on ``(c2, c3)``, the remaining cycle
  edges carry the identity relation ``{(a, a)}`` and all non-cycle edges
  the complete relation — a satisfying assignment walks the intersection
  element around the cycle.  These relations are built here, as dict
  factors.
* **Independent-set case**: the planting of Lemma 4.3
  (:func:`~repro.lowerbounds.forest_embedding.plant_tribes`), each
  independent vertex carrying its pair on its first two incident edges.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..hypergraph import Hypergraph
from ..network.topology import insertion_order_edges
from ..semiring import BOOLEAN, Factor
from .forest_embedding import (
    TribesEmbedding,
    edge_lookup,
    incident_sites,
    plant_tribes,
)
from .tribes import TribesInstance

#: ``vertex -> {neighbour: None}``.  Both harvests break ties by the
#: order of its two levels, which is the order ``networkx.Graph`` would
#: hold after the same inserts and deletes (the goldens in
#: ``tests/golden/topologies.json`` were written through networkx 3.6.1).
Graph = Dict[Any, Dict[Any, None]]


def _simple_graph(hypergraph: Hypergraph) -> Graph:
    """The arity-2 edges of ``hypergraph`` as a simple graph.  Vertices
    go in sorted by ``str``, not in the iteration order of the vertex
    *set*, so the harvest does not change with the process's string
    hashing."""
    g: Graph = {v: {} for v in sorted(hypergraph.vertices, key=str)}
    for _name, verts in hypergraph.edges():
        vs = sorted(verts, key=str)
        if len(vs) == 2:
            g[vs[0]][vs[1]] = g[vs[1]][vs[0]] = None
    return g


def _remove_nodes(g: Graph, nodes: Iterable) -> None:
    for node in nodes:
        for nb in g.pop(node):
            del g[nb][node]


def find_disjoint_cycles(hypergraph: Hypergraph) -> List[List[str]]:
    """Greedy vertex-disjoint short cycles (the Lemma E.2 cycle harvest).

    Repeatedly finds a shortest cycle (via per-edge BFS) and removes its
    vertices; each harvested cycle is returned as an ordered vertex list.
    """
    g = _simple_graph(hypergraph)
    cycles: List[List[str]] = []
    while True:
        cycle = _shortest_cycle(g)
        if cycle is None:
            return cycles
        cycles.append(cycle)
        _remove_nodes(g, cycle)


def _shortest_cycle(g: Graph) -> Optional[List[str]]:
    best: Optional[List[str]] = None
    for u, v in sorted(insertion_order_edges(g), key=lambda e: tuple(map(str, e))):
        # Taking the edge out and putting it back moves it to the end of
        # both neighbour lists, as it did on a networkx graph: later
        # searches see that order.
        del g[u][v], g[v][u]
        path = _bidirectional_path(g, u, v)
        g[u][v] = g[v][u] = None
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def _bidirectional_path(g: Graph, source, target) -> Optional[List]:
    """A shortest ``source``-``target`` path, or None: networkx 3.6.1's
    unweighted ``bidirectional_shortest_path``.  Whole levels alternate,
    the smaller fringe first and the forward one on a tie; the first
    vertex reached from both ends joins the two halves."""
    pred = {source: None}
    succ = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            seen, other, fringe = pred, succ, forward
        else:
            level, reverse = reverse, []
            seen, other, fringe = succ, pred, reverse
        for v in level:
            for w in g[v]:
                if w not in seen:
                    seen[w] = v
                    fringe.append(w)
                if w in other:
                    return _chain(pred, w)[::-1] + _chain(succ, succ[w])
    return None


def _chain(links: Dict[Any, Any], node) -> List:
    """``node``, ``links[node]``, ... up to the end that maps to None."""
    out = []
    while node is not None:
        out.append(node)
        node = links[node]
    return out


def greedy_independent_set(
    hypergraph: Hypergraph, require_degree_two: bool = True
) -> List[str]:
    """A maximal independent set by min-degree peeling (Turán-style).

    Args:
        require_degree_two: Keep only vertices with >= 2 incident edges in
            the original graph (they carry two planted relations).
    """
    work = _simple_graph(hypergraph)
    degree = {v: len(nbrs) for v, nbrs in work.items()}
    out: List[str] = []
    while work:
        v = min(work, key=lambda u: (len(work[u]), str(u)))
        out.append(v)
        _remove_nodes(work, [v, *work[v]])
    if require_degree_two:
        out = [v for v in out if degree[v] >= 2]
    return sorted(out, key=str)


def core_embedding_capacity(hypergraph: Hypergraph) -> Tuple[str, int]:
    """``(mode, capacity)``: how many pairs the Theorem 4.4 embedding fits."""
    cycles = find_disjoint_cycles(hypergraph)
    independent = greedy_independent_set(hypergraph)
    if len(cycles) >= len(independent):
        return "cycles", len(cycles)
    return "independent-set", len(independent)


def embed_tribes_in_core(
    hypergraph: Hypergraph, tribes: TribesInstance
) -> TribesEmbedding:
    """Construct the Theorem 4.4 BCQ instance for a cyclic simple graph.

    Chooses the larger of the cycle / independent-set embeddings.  For the
    cycle case the universe must be a perfect square (pairs are re-encoded
    over ``[√N]²``); pad the TRIBES universe accordingly.

    Raises:
        ValueError: if arity > 2, too few sites, or (cycle mode) the
            universe size is not a perfect square.
    """
    if hypergraph.arity > 2:
        raise ValueError("core embedding requires arity <= 2")
    mode, capacity = core_embedding_capacity(hypergraph)
    if tribes.m > capacity:
        raise ValueError(
            f"TRIBES has m={tribes.m} pairs but the core embeds {capacity}"
        )
    if mode == "cycles":
        return _embed_on_cycles(hypergraph, tribes)
    sites = incident_sites(hypergraph, greedy_independent_set(hypergraph))
    return plant_tribes(hypergraph, tribes, sites, mode)


def _embed_on_cycles(
    hypergraph: Hypergraph, tribes: TribesInstance
) -> TribesEmbedding:
    n = tribes.universe_size
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(
            f"cycle embedding needs a square universe size; got {n}"
        )

    def split(value: int) -> Tuple[int, int]:
        return (value // side, value % side)

    cycles = find_disjoint_cycles(hypergraph)[: tribes.m]
    lookup = edge_lookup(hypergraph)
    domain = tuple(range(side))
    domains = {v: domain for v in hypergraph.vertices}
    factors: Dict[str, Factor] = {}
    s_edges: List[str] = []
    t_edges: List[str] = []

    for cycle, (s_set, t_set) in zip(cycles, tribes.pairs):
        c = list(cycle)
        ordered = c + [c[0]]
        edges = [
            lookup[frozenset((ordered[i], ordered[i + 1]))]
            for i in range(len(c))
        ]
        # R_S on (c1, c2): pairs split(v); R_T on (c2, c3) with reversed
        # coordinates; identity on the remaining cycle edges.
        s_edge, t_edge = edges[0], edges[1]
        s_schema = tuple(sorted((c[0], c[1]), key=str))
        t_schema = tuple(sorted((c[1], c[2 % len(c)]), key=str))
        factors[s_edge] = _pair_factor(
            s_schema, c[0], c[1], [split(v) for v in sorted(s_set)], s_edge
        )
        factors[t_edge] = _pair_factor(
            t_schema, c[2 % len(c)], c[1], [split(v) for v in sorted(t_set)],
            t_edge,
        )
        for name in edges[2:]:
            verts = tuple(sorted(hypergraph.edge(name), key=str))
            factors[name] = Factor.from_tuples(
                verts, [(a, a) for a in domain], BOOLEAN, name
            )
        s_edges.append(s_edge)
        t_edges.append(t_edge)

    for name, verts in hypergraph.edges():
        if name in factors:
            continue
        schema = tuple(sorted(verts, key=str))
        factors[name] = Factor.constant_one(
            schema, {v: domain for v in schema}, BOOLEAN, name
        )
    return TribesEmbedding(
        hypergraph=hypergraph,
        factors=factors,
        domains=domains,
        mode="cycles",
        sites=tuple(tuple(c) for c in cycles),
        s_edges=tuple(s_edges),
        t_edges=tuple(t_edges),
        tribes=tribes,
    )


def _pair_factor(
    schema: Tuple[str, str],
    first_var: str,
    second_var: str,
    pairs: List[Tuple[int, int]],
    name: str,
) -> Factor:
    """A binary relation holding ``pairs`` with (first, second) semantics."""
    tuples = []
    for a, b in pairs:
        row = {first_var: a, second_var: b}
        tuples.append(tuple(row[v] for v in schema))
    return Factor.from_tuples(schema, tuples, BOOLEAN, name)
