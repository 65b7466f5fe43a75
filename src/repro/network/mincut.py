"""MinCut(G, K) — Definition 3.6.

``MinCut(G, K)`` is the size of the smallest edge cut of ``G`` that
separates at least two players of ``K``; every cut separating ``K``
separates a fixed terminal from some other terminal, so the Steiner
mincut equals ``min_{t in K, t != s} edge_connectivity(s, t)``.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import networkx as nx

from .topology import Topology


def mincut(topology: Topology, players: Sequence[str]) -> int:
    """``MinCut(G, K)``: minimum edge cut separating the players ``K``.

    Args:
        topology: The communication graph ``G``.
        players: The terminal set ``K`` (at least two distinct players).

    Raises:
        ValueError: if fewer than two distinct players are given or a
            player is not a node of ``G``.
    """
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


def mincut_partition(
    topology: Topology, players: Sequence[str]
) -> Tuple[Set[str], Set[str], List[Tuple[str, str]]]:
    """A minimum K-separating cut as ``(A, B, crossing_edges)``.

    Used by the lower-bound reductions (Lemma 4.4): relations embedding the
    Alice side of TRIBES are assigned into ``A``, the Bob side into ``B``,
    and any protocol induces a two-party protocol across the returned
    crossing edges.
    """
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
