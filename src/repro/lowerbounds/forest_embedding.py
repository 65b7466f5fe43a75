"""Planting TRIBES in a BCQ: Lemma 4.3, and the one planting every
lower-bound embedding shares.

Given a query ``H`` and a TRIBES instance, construct a BCQ instance
``q_{H,S,T}`` with

    BCQ(q) = 1  iff  TRIBES(S, T) = 1.

Every embedding plants the same way (:func:`plant_tribes`).  Each set
pair goes on two edges around one *site* vertex ``o_i``, as
``S_i x {1}`` and ``T_i x {1}``; every other edge touching a site frees
its coordinate, ``[N] x {1}``; every remaining edge is ``{1} x {1}``.  No
edge holds two sites, so every other vertex is pinned to the filler 1,
and ``q`` is satisfiable iff every ``o_i`` can take a value in
``S_i ∩ T_i``.  The embeddings differ only in their sites:

* Lemma 4.3 (here): the internal vertices of one bipartition class of a
  forest (the set ``O``), each planted on a child edge and its parent
  edge.  The capacity ``|O| >= y(H)/2`` drives the Lemma 4.4 bound;
* Lemma E.2's independent-set case (:mod:`.core_embedding`);
* Theorem F.8's strong independent set (:mod:`.hypergraph_embedding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hypergraph import Hypergraph, is_acyclic
from ..semiring import BOOLEAN, ColumnarFactor, Factor
from ..semiring.columnar import Dictionary, empty_like
from .tribes import TribesInstance

#: The value every coordinate but a site's is pinned to.
FILLER = 1

#: ``(o, s_edge, t_edge)``: a site vertex and the edges carrying its pair.
Site = Tuple[str, str, str]


@dataclass
class TribesEmbedding:
    """A TRIBES -> BCQ embedding.

    Attributes:
        hypergraph: The query ``H``.
        factors: The constructed relations, keyed by hyperedge name.
        domains: Per-variable domains.
        mode: ``"forest"`` (Lemma 4.3), ``"independent-set"`` or
            ``"cycles"`` (Lemma E.2), or ``"hypergraph"`` (Theorem F.8).
        sites: Per pair, the vertex carrying it; in ``"cycles"`` mode,
            the cycle (a vertex tuple).
        s_edges: Edge name carrying ``S_i`` (Alice's side), per pair.
        t_edges: Edge name carrying ``T_i`` (Bob's side), per pair.
        tribes: The embedded instance.
    """

    hypergraph: Hypergraph
    factors: Dict[str, Factor]
    domains: Dict[str, Tuple]
    mode: str
    sites: Tuple
    s_edges: Tuple[str, ...]
    t_edges: Tuple[str, ...]
    tribes: TribesInstance


def plant_tribes(
    hypergraph: Hypergraph,
    tribes: TribesInstance,
    sites: Sequence[Site],
    mode: str,
) -> TribesEmbedding:
    """Plant ``tribes`` on the first ``m`` of ``sites``.

    Args:
        sites: Every plantable ``(o, s_edge, t_edge)``, in pair order:
            ``S_i`` goes on ``s_edge`` and ``T_i`` on ``t_edge``, two
            edges holding ``o``.  No edge may hold two sites.
        mode: The embedding's name, kept on the result.

    Raises:
        ValueError: if there are fewer sites than pairs.
    """
    if tribes.m > len(sites):
        raise ValueError(
            f"TRIBES has m={tribes.m} pairs but H only embeds {len(sites)}"
        )
    sites = sites[: tribes.m]
    n = tribes.universe_size
    domain = tuple(range(n)) + ((FILLER,) if FILLER >= n else ())
    factors: Dict[str, Factor] = {}
    for (o, s_edge, t_edge), (s_set, t_set) in zip(sites, tribes.pairs):
        for edge, values in ((s_edge, s_set), (t_edge, t_set)):
            factors[edge] = _planted_factor(
                _ordered_schema(hypergraph, edge), o, _sorted(values),
                FILLER, edge,
            )
    chosen = {o for o, _s_edge, _t_edge in sites}
    for name, _verts in hypergraph.edges():
        if name in factors:
            continue
        schema = _ordered_schema(hypergraph, name)
        touching = [v for v in schema if v in chosen]
        if touching:
            # Free the site's coordinate ([N]), pin the rest to the filler.
            factors[name] = _planted_factor(
                schema, touching[0], np.arange(n), FILLER, name
            )
        else:
            factors[name] = _planted_factor(
                schema, schema[0], [FILLER], FILLER, name
            )
    return TribesEmbedding(
        hypergraph=hypergraph,
        factors=factors,
        domains={v: domain for v in hypergraph.vertices},
        mode=mode,
        sites=tuple(o for o, _s_edge, _t_edge in sites),
        s_edges=tuple(s_edge for _o, s_edge, _t_edge in sites),
        t_edges=tuple(t_edge for _o, _s_edge, t_edge in sites),
        tribes=tribes,
    )


def edge_lookup(hypergraph: Hypergraph) -> Dict[frozenset, str]:
    """``{vertex set: name}``, naming the first edge of each set."""
    lookup: Dict[frozenset, str] = {}
    for name, verts in hypergraph.edges():
        lookup.setdefault(verts, name)
    return lookup


def incident_sites(hypergraph: Hypergraph, vertices: Sequence[str]) -> List[Site]:
    """Each vertex with its first two incident edges, by name."""
    return [(v, *sorted(hypergraph.incident_edges(v))[:2]) for v in vertices]


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
    return len(_choose_o_set(hypergraph)[0])


def _choose_o_set(
    hypergraph: Hypergraph,
) -> Tuple[List[str], Dict[str, Optional[str]]]:
    """The larger bipartition class of degree->=2 vertices, and the
    parent map it was read from."""
    parents, depth = _forest_structure(hypergraph)
    classes: Tuple[List[str], List[str]] = ([], [])
    for v in sorted(hypergraph.vertices, key=str):
        if len(hypergraph.neighbors(v)) >= 2:
            classes[depth[v] % 2].append(v)
    even, odd = classes
    return (even if len(even) >= len(odd) else odd), parents


def embed_tribes_in_forest(
    hypergraph: Hypergraph, tribes: TribesInstance
) -> TribesEmbedding:
    """Construct the Lemma 4.3 BCQ instance for a forest query.

    Each vertex of ``O`` carries ``S_i`` on the edge to its first child
    and ``T_i`` on the edge to its parent (a root: its second child).

    Args:
        hypergraph: A forest: arity <= 2 and acyclic (simple-graph edges).
        tribes: The TRIBES instance; needs ``tribes.m <=``
            :func:`embedding_capacity` slots.

    Returns:
        A ``"forest"`` :class:`TribesEmbedding` whose BCQ value provably
        equals the TRIBES value (tests machine-check this on random
        instances).

    Raises:
        ValueError: if ``H`` is not a forest or has too few slots.
    """
    if hypergraph.arity > 2:
        raise ValueError("forest embedding requires arity <= 2")
    if not is_acyclic(hypergraph):
        raise ValueError("forest embedding requires an acyclic simple graph")
    o_set, parents = _choose_o_set(hypergraph)
    lookup = edge_lookup(hypergraph)
    sites = []
    for o in o_set:
        parent = parents[o]
        children = [
            v for v in sorted(hypergraph.neighbors(o), key=str) if v != parent
        ]
        op = parent if parent is not None else children[1]
        sites.append((
            o, lookup[frozenset((o, children[0]))], lookup[frozenset((o, op))]
        ))
    return plant_tribes(hypergraph, tribes, sites, "forest")


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

    Built from arrays, with no row tuples and no encode: the free column
    is coded ``arange`` over ``values`` as its dictionary, and each
    filler column is coded 0 over the one-entry dictionary
    ``[filler]``.  For sorted, distinct ``values`` (the embedding's
    always are) that is ``ColumnarFactor.from_factor(Factor.from_tuples(
    ...))`` of the same tuples, codes, dictionaries and row order
    included.

    Raises:
        ValueError: if ``values`` are not sorted and distinct.
    """
    values = np.asarray(values)
    n = len(values)
    if n > 1 and not (values[1:] > values[:-1]).all():
        raise ValueError(
            f"planted values of {name!r} are not sorted and distinct"
        )
    if n == 0:
        return empty_like(schema, [[] for _ in schema], BOOLEAN, name)
    codes, dicts = [], []
    for var in schema:
        if var == free_var:
            codes.append(np.arange(n, dtype=np.int64))
            dicts.append(Dictionary(values.tolist(), array=values))
        else:
            one = np.full(1, filler)
            codes.append(np.zeros(n, dtype=np.int64))
            dicts.append(Dictionary(one.tolist(), array=one))
    return ColumnarFactor._from_arrays(
        schema, codes, dicts, np.ones(n, dtype=bool), BOOLEAN, name
    )
