"""Embedding TRIBES into forest BCQs — Lemma 4.3 and Example 2.4.

Given a forest query ``H`` (arity <= 2, acyclic) and a TRIBES instance,
construct a BCQ instance ``q_{H,S,T}`` with

    BCQ(q) = 1  iff  TRIBES(S, T) = 1,

by planting each set pair on the two tree edges around an internal vertex
of one bipartition class (the set ``O``), filling the other edges incident
to ``O`` with ``[N] x {1}`` and all remaining edges with ``{1} x {1}``.
The embedding capacity ``|O| >= y(H)/2`` drives the Lemma 4.4 bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..hypergraph import Hypergraph, is_acyclic
from ..semiring import BOOLEAN, ColumnarFactor, Factor
from .tribes import TribesInstance


@dataclass
class ForestEmbedding:
    """A TRIBES -> BCQ embedding (Lemma 4.3).

    Attributes:
        hypergraph: The forest query ``H``.
        factors: The constructed relations, keyed by hyperedge name.
        domains: Domains (``[N]`` plus the filler value 1).
        o_nodes: The vertices carrying set pairs, in pair order.
        s_edges: Edge name carrying ``S_i`` (Alice's side), per pair.
        t_edges: Edge name carrying ``T_i`` (Bob's side), per pair.
        tribes: The embedded instance.
    """

    hypergraph: Hypergraph
    factors: Dict[str, Factor]
    domains: Dict[str, Tuple]
    o_nodes: Tuple[str, ...]
    s_edges: Tuple[str, ...]
    t_edges: Tuple[str, ...]
    tribes: TribesInstance


def _forest_structure(
    hypergraph: Hypergraph,
) -> Tuple[Dict[str, Optional[str]], Dict[str, int]]:
    """Root every tree and return (parent vertex map, depth map)."""
    parents: Dict[str, Optional[str]] = {}
    depth: Dict[str, int] = {}
    for component in hypergraph.connected_components():
        root = min(component, key=str)
        parents[root] = None
        depth[root] = 0
        frontier = [root]
        seen = {root}
        while frontier:
            nxt = []
            for u in frontier:
                for v in sorted(hypergraph.neighbors(u), key=str):
                    if v not in seen:
                        seen.add(v)
                        parents[v] = u
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
    return parents, depth


def embedding_capacity(hypergraph: Hypergraph) -> int:
    """``|O|``: the number of plantable vertices (>= y(H)/2, Lemma 4.3)."""
    return len(_choose_o_set(hypergraph))


def _choose_o_set(hypergraph: Hypergraph) -> List[str]:
    """The larger bipartition class of degree->=2 vertices."""
    _parents, depth = _forest_structure(hypergraph)
    even = [
        v
        for v in sorted(hypergraph.vertices, key=str)
        if len(hypergraph.neighbors(v)) >= 2 and depth[v] % 2 == 0
    ]
    odd = [
        v
        for v in sorted(hypergraph.vertices, key=str)
        if len(hypergraph.neighbors(v)) >= 2 and depth[v] % 2 == 1
    ]
    return even if len(even) >= len(odd) else odd


def embed_tribes_in_forest(
    hypergraph: Hypergraph, tribes: TribesInstance
) -> ForestEmbedding:
    """Construct the Lemma 4.3 BCQ instance for a forest query.

    Args:
        hypergraph: A forest: arity <= 2 and acyclic (simple-graph edges).
        tribes: The TRIBES instance; needs ``tribes.m <=``
            :func:`embedding_capacity` slots.

    Returns:
        A :class:`ForestEmbedding` whose BCQ value provably equals the
        TRIBES value (tests machine-check this on random instances).

    Raises:
        ValueError: if ``H`` is not a forest or has too few slots.
    """
    if hypergraph.arity > 2:
        raise ValueError("forest embedding requires arity <= 2")
    if not is_acyclic(hypergraph):
        raise ValueError("forest embedding requires an acyclic simple graph")
    o_set = _choose_o_set(hypergraph)
    if tribes.m > len(o_set):
        raise ValueError(
            f"TRIBES has m={tribes.m} pairs but H only embeds {len(o_set)}"
        )
    chosen = o_set[: tribes.m]
    parents, _depth = _forest_structure(hypergraph)

    n = tribes.universe_size
    filler = 1
    domain = tuple(range(n)) + ((filler,) if filler >= n else ())
    domains = {v: domain for v in hypergraph.vertices}

    def edge_between(u: str, v: str) -> str:
        for name, verts in hypergraph.edges():
            if verts == frozenset((u, v)):
                return name
        raise KeyError(f"no edge between {u!r} and {v!r}")

    factors: Dict[str, Factor] = {}
    s_edges: List[str] = []
    t_edges: List[str] = []
    planted_edges: Set[str] = set()

    for o, (s_set, t_set) in zip(chosen, tribes.pairs):
        neighbors = sorted(hypergraph.neighbors(o), key=str)
        parent = parents[o]
        children = [v for v in neighbors if v != parent]
        oc = children[0]
        op = parent if parent is not None else children[1]
        s_edge = edge_between(o, oc)
        t_edge = edge_between(o, op)
        schema_s = _ordered_schema(hypergraph, s_edge)
        schema_t = _ordered_schema(hypergraph, t_edge)
        factors[s_edge] = _planted_factor(schema_s, o, _sorted(s_set), filler, s_edge)
        factors[t_edge] = _planted_factor(schema_t, o, _sorted(t_set), filler, t_edge)
        planted_edges.update((s_edge, t_edge))
        s_edges.append(s_edge)
        t_edges.append(t_edge)

    chosen_set = set(chosen)
    for name, verts in hypergraph.edges():
        if name in planted_edges:
            continue
        schema = _ordered_schema(hypergraph, name)
        touching = [v for v in schema if v in chosen_set]
        if touching:
            # Free the O-coordinate ([N]), pin the rest to the filler.
            o = touching[0]
            factors[name] = _planted_factor(
                schema, o, np.arange(n), filler, name
            )
        else:
            factors[name] = _planted_factor(
                schema, schema[0], [filler], filler, name
            )
    return ForestEmbedding(
        hypergraph=hypergraph,
        factors=factors,
        domains=domains,
        o_nodes=tuple(chosen),
        s_edges=tuple(s_edges),
        t_edges=tuple(t_edges),
        tribes=tribes,
    )


def _ordered_schema(hypergraph: Hypergraph, edge_name: str) -> Tuple[str, ...]:
    return tuple(sorted(hypergraph.edge(edge_name), key=str))


def _sorted(values: frozenset) -> np.ndarray:
    """A TRIBES set (ints of ``[N]``) as a sorted array."""
    return np.sort(np.fromiter(values, dtype=np.int64, count=len(values)))


def _planted_factor(
    schema: Tuple[str, ...],
    free_var: str,
    values: Sequence,
    filler,
    name: str,
) -> ColumnarFactor:
    """``values x {filler}``: the free coordinate ranges over ``values``.

    Built columnar from the values, with no row tuples: a repeated
    value keeps its first occurrence (combining Boolean duplicates), so
    this is ``ColumnarFactor.from_factor(Factor.from_tuples(...))`` of
    the same tuples, row order included.  The embedding's values are
    sorted and distinct, so it never dedupes.
    """
    values = np.asarray(values)
    if len(values) > 1 and not (values[1:] > values[:-1]).all():
        values = np.asarray(list(dict.fromkeys(values.tolist())))
    columns = [np.full(len(values), filler)] * len(schema)
    columns[schema.index(free_var)] = values
    return ColumnarFactor.from_columns(
        schema, columns, np.ones(len(values), dtype=bool), BOOLEAN, name
    )
