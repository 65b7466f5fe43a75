"""Yannakakis-style BCQ evaluation via semijoin programs.

The paper's upper bounds repeatedly cast BCQ sub-problems as semijoin
programs (Examples 2.1–2.2, footnote 11); this module provides the
centralized reference: a bottom-up semijoin pass over a join tree decides
an acyclic BCQ.  It is a test oracle, imported by module path only.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..decomposition import GHD, best_gyo_ghd
from ..hypergraph import is_acyclic
from ..semiring import BOOLEAN, Factor
from .message_passing import assign_factors_to_ghd
from .operations import multi_join, semijoin
from .query import FAQQuery


def _boolean_locals(query: FAQQuery, tree: GHD) -> Dict[str, Optional[Factor]]:
    """Per-node joined Boolean factor (None for structural nodes)."""
    placement = assign_factors_to_ghd(query, tree)
    locals_: Dict[str, Optional[Factor]] = {}
    for node_id, parts in placement.items():
        if parts:
            boolean_parts = [
                p if p.is_boolean() else p.with_semiring(BOOLEAN) for p in parts
            ]
            locals_[node_id] = multi_join(boolean_parts)
        else:
            locals_[node_id] = None
    return locals_


def solve_bcq_yannakakis(
    query: FAQQuery,
    ghd: Optional[GHD] = None,
    backend: Optional[str] = None,
) -> bool:
    """Decide a Boolean Conjunctive Query with one bottom-up semijoin pass.

    Args:
        query: A BCQ (free variables are ignored; annotations are lifted to
            Boolean if needed).
        ghd: Optional join tree; defaults to the best GYO-GHD.
        backend: Optional storage backend override (``"dict"`` or
            ``"columnar"``) applied to the factors for this solve only;
            ``None`` keeps the query's own backend.

    Returns:
        True iff the natural join of all relations is non-empty.

    Raises:
        ValueError: if ``H`` is cyclic and no GHD is supplied (Yannakakis
            requires a join tree; the protocols handle cyclic cores by the
            trivial protocol instead).
    """
    if backend is not None:
        query = query.with_backend(backend)
    if ghd is None and not is_acyclic(query.hypergraph):
        raise ValueError(
            "Yannakakis requires an acyclic query (or an explicit GHD)"
        )
    if ghd is None:
        ghd = best_gyo_ghd(query.hypergraph)
    locals_ = _boolean_locals(query, ghd)

    reduced: Dict[str, Optional[Factor]] = {}
    for node in ghd.postorder():
        current = locals_[node.node_id]
        for child_id in node.children:
            child_factor = reduced[child_id]
            if child_factor is None:
                continue
            if len(child_factor) == 0:
                return False
            if current is not None:
                current = semijoin(current, child_factor)
            else:
                # Structural node: forward the child's projection upward by
                # treating the child factor itself as the local content.
                current = child_factor
        reduced[node.node_id] = current
        if current is not None and len(current) == 0:
            return False
    root_factor = reduced[ghd.root_id]
    return root_factor is None or len(root_factor) > 0
