"""GHD message-passing FAQ solver — the upward pass of Theorem G.3.

Evaluates an FAQ on a GYO-GHD bottom-up: each node joins its local factors
with the messages of its children, *pushes down* the aggregates of the
variables private to its subtree (Corollary G.2 justifies this for any mix
of semiring and product aggregates, because the pushed-down variables occur
in no other factor), and sends the reduced factor to its parent.  The root
finishes the remaining bound variables in listed order.

This is exactly the computation the distributed protocol of Algorithm 3 /
Appendix G.3 performs over the network; the centralized version here is
both a solver in its own right (O~(N) for acyclic H, Theorem G.3) and the
per-player "internal computation" of the simulator protocols.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..decomposition import GHD, best_gyo_ghd
from ..semiring import Factor
from .operations import marginalize, multi_join, project
from .query import FAQQuery


def assign_factors_to_ghd(query: FAQQuery, ghd: GHD) -> Dict[str, List[Factor]]:
    """Map each hyperedge's factor to a GHD node covering it.

    Prefers the node whose ``lambda`` names the edge; falls back to any
    node whose bag contains the edge.

    Raises:
        ValueError: if some hyperedge is covered by no node (an invalid
            GHD for this query).
    """
    placement: Dict[str, List[Factor]] = {node_id: [] for node_id in ghd.nodes}
    for name, factor in query.factors.items():
        home = ghd.covering_node(name)
        if home is None:
            edge = query.hypergraph.edge(name)
            home = next(
                (
                    node.node_id
                    for node in ghd.nodes.values()
                    if edge <= node.chi
                ),
                None,
            )
        if home is None:
            raise ValueError(f"hyperedge {name!r} is covered by no GHD node")
        placement[home].append(factor)
    return placement


def upward_pass_message(
    query: FAQQuery,
    local: Factor,
    keep_vars: set,
) -> Factor:
    """Reduce ``local`` to the variables in ``keep_vars``.

    Variables outside ``keep_vars`` are private to the current subtree
    (running intersection property) and their aggregates are pushed down
    here, respecting the listed right-to-left order among themselves.
    """
    private = [v for v in local.schema if v not in keep_vars]
    if not private:
        return local
    # Respect the listed order among the private variables.
    ordered = [v for v in query.elimination_order() if v in private]
    out = local
    for variable in ordered:
        aggregate = query.aggregate_for(variable)
        combine = aggregate.resolve(query.semiring)
        full_domain = (
            query.domains[variable] if aggregate.needs_full_domain else None
        )
        out = marginalize(out, variable, combine, full_domain)
    return out


def solve_message_passing(
    query: FAQQuery,
    ghd: Optional[GHD] = None,
    backend: Optional[str] = None,
) -> Factor:
    """Evaluate ``query`` via the Theorem G.3 upward pass.

    Args:
        query: The FAQ instance.  The paper's restriction applies: free
            variables must be available at the root (``F ⊆ V(C(H))``,
            Appendix G.5); a free variable that would be aggregated on the
            way up raises.
        ghd: Optional decomposition; defaults to the best GYO-GHD.
        backend: Optional storage backend override (``"dict"`` or
            ``"columnar"``) applied to the factors for this solve only;
            ``None`` keeps the query's own backend.

    Returns:
        A factor over ``query.free_vars``.

    Raises:
        ValueError: if a free variable is not contained in the root bag's
            running-intersection cone (the unsupported-free-variable case
            of Appendix G.5).
    """
    if backend is not None:
        query = query.with_backend(backend)
    tree = ghd or best_gyo_ghd(query.hypergraph)
    placement = assign_factors_to_ghd(query, tree)
    free = set(query.free_vars)

    messages: Dict[str, List[Factor]] = {node_id: [] for node_id in tree.nodes}
    # ``tree.root`` raises on a GHD without nodes; otherwise the postorder
    # ends at the root, which sets ``result`` or raises.
    root_id = tree.root.node_id
    result: Optional[Factor] = None
    for node in tree.postorder():
        parts = placement[node.node_id] + messages[node.node_id]
        if not parts:
            # A structural node with no factor: contributes the constant 1,
            # i.e. nothing — but it must still forward child messages.
            local = None
        else:
            local = multi_join(parts)
        if node.node_id == root_id:
            if local is None:
                raise ValueError("root received no factors; query is empty")
            # Finish the remaining bound variables in listed order.
            for variable in query.elimination_order():
                if variable in local.schema and variable not in free:
                    aggregate = query.aggregate_for(variable)
                    combine = aggregate.resolve(query.semiring)
                    full_domain = (
                        query.domains[variable]
                        if aggregate.needs_full_domain
                        else None
                    )
                    local = marginalize(local, variable, combine, full_domain)
            missing_free = free - set(local.schema)
            if missing_free:
                raise ValueError(
                    "free variables not available at the root (Appendix G.5 "
                    f"restriction): {sorted(missing_free, key=str)}"
                )
            result = local
            continue
        # Messages keep the parent's bag plus every free variable: only
        # *bound* variables private to the subtree are pushed down
        # (Corollary G.2); free variables ride along to the root.
        parent_bag = tree.nodes[node.parent].chi
        keep = set(parent_bag) | free
        if local is not None:
            message = upward_pass_message(query, local, keep)
            messages[node.parent].append(message)

    if tuple(result.schema) != query.free_vars:
        result = project(result, query.free_vars)
    return result
