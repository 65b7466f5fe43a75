"""GYO-GHDs — Construction 2.8.

Given the core/forest decomposition of Definition 2.7, the GYO-GHD has

* a root ``r'`` with ``chi(r') = V(C(H))`` covering every core edge,
* one node per hyperedge ``e`` with ``e ⊊ V(C(H))`` attached to ``r'``, and
* the removed trees of ``W(H)`` hanging below, following the GYO parent
  links (each removed edge's parent is a witness containing its residual).

The construction yields a *reduced* GHD (Appendix C.1): every hyperedge has
a node whose bag equals it exactly (or equals the root bag).
"""

from __future__ import annotations

from typing import Dict

from ..hypergraph import Decomposition, Hypergraph, decompose
from .ghd import GHD

#: Node id used for the Construction 2.8 super-root.
CORE_ROOT_ID = "__core__"


def gyo_ghd(hypergraph: Hypergraph, decomposition: Decomposition | None = None) -> GHD:
    """Build the canonical GYO-GHD of ``H`` via Construction 2.8.

    Args:
        hypergraph: The query hypergraph ``H``.
        decomposition: Optional precomputed core/forest split; computed
            when omitted.

    Returns:
        A validated, reduced, rooted :class:`~repro.decomposition.ghd.GHD`
        whose root bag is ``V(C(H))``.
    """
    dec = decomposition or decompose(hypergraph)
    core_vertices = dec.core_vertices
    tree = GHD(hypergraph)
    full_bag_edges = sorted(
        name
        for name in dec.core_edge_names
        if hypergraph.edge(name) == core_vertices
    )
    # Exactly one edge equal to the whole core bag is covered by the root
    # itself (keeping the root a single-relation node for acyclic H, which
    # the star protocol requires); duplicates become leaf children.  If no
    # edge equals the bag, the root carries every core edge in lambda so
    # the trivial-protocol planner can read "what the core holds" off it.
    core_lam = {full_bag_edges[0]} if full_bag_edges else set(dec.core_edge_names)
    tree.add_node(CORE_ROOT_ID, core_vertices, core_lam)

    # One child per hyperedge inside the core bag (Construction 2.8 second
    # sentence).  This covers core edges and doubles as the hanging point
    # for each removed tree whose root is such an edge.
    attach_point: Dict[str, str] = {}
    for name in hypergraph.edge_names:
        edge = hypergraph.edge(name)
        if name in core_lam and edge == core_vertices:
            attach_point[name] = CORE_ROOT_ID
        elif edge == core_vertices:
            # A parallel duplicate of the root bag: its own leaf node.
            tree.add_node(name, edge, {name}, parent=CORE_ROOT_ID)
            attach_point[name] = name
        elif name in dec.core_edge_names or name in dec.tree_roots:
            tree.add_node(name, edge, {name}, parent=CORE_ROOT_ID)
            attach_point[name] = name

    # Hang the removed (forest) edges following GYO parent links, in
    # removal order reversed so parents exist before children.
    removed = sorted(dec.gyo.removed, key=lambda r: -r.order)
    for rec in removed:
        if rec.name in attach_point:  # tree roots already placed
            continue
        parent_name = rec.parent
        parent_id = attach_point.get(parent_name, CORE_ROOT_ID)
        tree.add_node(rec.name, rec.original, {rec.name}, parent=parent_id)
        attach_point[rec.name] = rec.name

    tree.validate()
    return tree
