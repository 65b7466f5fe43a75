"""MinCut(G, K) — Definition 3.6.

``MinCut(G, K)`` is the size of the smallest edge cut of ``G`` that
separates at least two players of ``K``; every cut separating ``K``
separates a fixed terminal from some other terminal, so the Steiner
mincut equals ``min_{t in K, t != s} edge_connectivity(s, t)``.

Both entry points read one scan (:func:`_min_terminal_cut`): a
unit-capacity maximum flow from ``s = K[0]`` to each other terminal by
breadth-first augmenting paths over one adjacency dict.  Every flow is
at most the degree of ``s``, so a handful of searches per terminal
replaces a general-purpose max-flow solver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .topology import Topology

Arc = Tuple[str, str]


def mincut(topology: Topology, players: Sequence[str]) -> int:
    """``MinCut(G, K)``: minimum edge cut separating the players ``K``.

    Args:
        topology: The communication graph ``G``.
        players: The terminal set ``K`` (at least two distinct players).

    Raises:
        ValueError: if fewer than two distinct players are given or a
            player is not a node of ``G``.
    """
    value, _sink_side, _adjacency = _min_terminal_cut(topology, players)
    return value


def mincut_partition(
    topology: Topology, players: Sequence[str]
) -> Tuple[Set[str], Set[str], List[Tuple[str, str]]]:
    """A minimum K-separating cut as ``(A, B, crossing_edges)``.

    Used by the lower-bound reductions (Lemma 4.4): relations embedding the
    Alice side of TRIBES are assigned into ``A``, the Bob side into ``B``,
    and any protocol induces a two-party protocol across the returned
    crossing edges.  ``K[0]`` is in ``A``; ``B`` is the smallest sink
    side of any minimum cut towards the terminal that attains it.

    Raises:
        ValueError: as :func:`mincut`.
    """
    _value, side_b, adjacency = _min_terminal_cut(topology, players)
    side_a = set(adjacency) - side_b
    crossing = sorted(
        (u, v) if u < v else (v, u)
        for u in side_b
        for v in adjacency[u]
        if v not in side_b
    )
    return side_a, side_b, crossing


def _min_terminal_cut(
    topology: Topology, players: Sequence[str]
) -> Tuple[int, Set[str], Dict[str, List[str]]]:
    """``(value, sink side, adjacency)`` of the first terminal, in sorted
    order, whose minimum cut from ``K[0]`` is strictly the smallest."""
    terminals = sorted(set(players))
    if len(terminals) < 2:
        raise ValueError("MinCut(G, K) needs at least two distinct players")
    missing = [p for p in terminals if p not in topology]
    if missing:
        raise ValueError(f"players not in topology: {missing}")
    adjacency = {node: list(nbrs) for node, nbrs in topology.adjacency.items()}
    source = terminals[0]
    best: Optional[Tuple[int, Set[str]]] = None
    for sink in terminals[1:]:
        cut = _unit_mincut(adjacency, source, sink, None if best is None else best[0])
        if cut is not None:
            best = cut
    value, sink_side = best
    return value, sink_side, adjacency


def _unit_mincut(
    adjacency: Dict[str, List[str]], s: str, t: str, below: Optional[int]
) -> Optional[Tuple[int, Set[str]]]:
    """Minimum s-t edge cut with unit capacities as ``(value, sink
    side)``; None as soon as the flow reaches ``below`` (the cut cannot
    be strictly smaller than one already found).

    Each undirected edge is two unit arcs, so ``flow`` holds the arcs
    carrying one net unit and the residual arc ``u -> v`` is open unless
    ``(u, v)`` is in it.  The sink side is every node that can still
    reach ``t`` in the residual graph — the same set for every maximum
    flow, hence independent of the order augmenting paths were found in.
    """
    flow: Set[Arc] = set()
    value = 0
    while True:
        if value == below:
            return None
        parents = _augmenting_path(adjacency, flow, s, t)
        if t not in parents:
            break
        node = t
        while parents[node] is not None:
            parent = parents[node]
            if (node, parent) in flow:
                flow.remove((node, parent))
            else:
                flow.add((parent, node))
            node = parent
        value += 1
    sink_side = {t}
    queue = [t]
    for node in queue:
        for nb in adjacency[node]:
            if nb not in sink_side and (nb, node) not in flow:
                sink_side.add(nb)
                queue.append(nb)
    return value, sink_side


def _augmenting_path(
    adjacency: Dict[str, List[str]], flow: Set[Arc], s: str, t: str
) -> Dict[str, Optional[str]]:
    """Parent pointers of a breadth-first search from ``s`` over open
    residual arcs, stopped once it reaches ``t``."""
    parents: Dict[str, Optional[str]] = {s: None}
    queue = [s]
    for node in queue:
        for nb in adjacency[node]:
            if nb not in parents and (node, nb) not in flow:
                parents[nb] = node
                if nb == t:
                    return parents
                queue.append(nb)
    return parents
