"""Embedding TRIBES into bounded-arity hypergraph BCQs — Theorem F.8.

For a d-degenerate hypergraph of arity <= r, Theorem F.5 guarantees a
*strong independent set* of attributes (no hyperedge contains two of them)
of size ``|V| / (d (r-1))``.  Each such attribute is a site of the
planting of Lemma 4.3
(:func:`~repro.lowerbounds.forest_embedding.plant_tribes`), its pair on
its first two incident hyperedges: the BCQ is equivalent to the TRIBES
instance, exactly as in the arity-two case.
"""

from __future__ import annotations

from typing import List, Set

from ..hypergraph import Hypergraph
from .forest_embedding import TribesEmbedding, incident_sites, plant_tribes
from .tribes import TribesInstance


def strong_independent_set(hypergraph: Hypergraph) -> List[str]:
    """A greedy strong independent set (Definition F.4) of attributes
    having at least two incident hyperedges (so a pair can be planted)."""
    chosen: List[str] = []
    blocked: Set = set()
    candidates = sorted(
        (v for v in hypergraph.vertices if hypergraph.degree(v) >= 2),
        key=lambda v: (hypergraph.degree(v), str(v)),
    )
    for v in candidates:
        if v in blocked:
            continue
        chosen.append(v)
        blocked.add(v)
        for edge in hypergraph.incident_edges(v):
            blocked |= hypergraph.edge(edge)
    return chosen


def embedding_capacity(hypergraph: Hypergraph) -> int:
    """How many pairs the strong-independent-set embedding fits."""
    return len(strong_independent_set(hypergraph))


def embed_tribes_in_hypergraph(
    hypergraph: Hypergraph, tribes: TribesInstance
) -> TribesEmbedding:
    """Construct the Theorem F.8 BCQ instance.

    Raises:
        ValueError: if the strong independent set is too small for the
            TRIBES instance.
    """
    sites = incident_sites(hypergraph, strong_independent_set(hypergraph))
    return plant_tribes(hypergraph, tribes, sites, "hypergraph")
