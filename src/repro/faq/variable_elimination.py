"""Variable-elimination FAQ solver (InsideOut-style).

Eliminates bound variables one at a time: all factors mentioning the
variable are joined and the variable is aggregated out of the combined
factor.  For FAQ-SS (one semiring aggregate everywhere) any elimination
order is valid (Theorem G.1, condition 1) and a structure-aware order is
chosen; for mixed-operator queries the listed right-to-left order is
respected so correctness never depends on operator commutation.

``solver="compiled"`` runs the same loop over the query's interned
factors (:meth:`~repro.faq.query.FAQQuery.interned_factors`), sends
each plain-⊕ step to the fused join+marginalize kernel
(:mod:`repro.faq.executor`) and takes the order from
:data:`~repro.faq.plan.PLAN_CACHE` (the ``faq.plan_cache`` memo) —
byte-identical answers, one order resolution per query structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..semiring import Factor
from .executor import eliminate_fused
from .operations import join_marginalize, marginalize, multi_join, project
from .plan import SOLVER_COMPILED, cached_elimination_order, validate_solver
from .query import FAQQuery


def greedy_elimination_order(query: FAQQuery) -> Tuple[str, ...]:
    """A min-degree-style order over the bound variables.

    Repeatedly picks the bound variable whose elimination joins the fewest
    factors (ties broken by smaller union schema, then name) — the classic
    heuristic that recovers a perfect elimination order on acyclic queries.

    Costs are maintained *incrementally*: eliminating a variable only
    changes the cost of variables sharing a schema with it, so just those
    are recomputed instead of every cost against every schema per pick
    (the old O(V²·F) loop).  The produced order is identical.
    """
    schemas: Dict[int, Set[str]] = {
        i: set(f.schema) for i, f in enumerate(query.factors.values())
    }
    touching_ids: Dict[str, Set[int]] = {}
    for sid, schema in schemas.items():
        for var in schema:
            touching_ids.setdefault(var, set()).add(sid)
    remaining = set(query.bound_vars)

    def cost(var: str) -> Tuple[int, int, str]:
        ids = touching_ids.get(var, ())
        merged: Set[str] = set()
        for sid in ids:
            merged |= schemas[sid]
        return (len(ids), len(merged), str(var))

    costs = {var: cost(var) for var in remaining}
    order: List[str] = []
    next_id = len(schemas)
    while remaining:
        var = min(remaining, key=costs.__getitem__)
        order.append(var)
        remaining.discard(var)
        ids = touching_ids.pop(var, set())
        merged: Set[str] = set()
        for sid in ids:
            merged |= schemas.pop(sid)
        merged.discard(var)
        if ids:
            sid = next_id
            next_id += 1
            schemas[sid] = merged
            for other in merged:
                touching_ids[other] -= ids
                touching_ids[other].add(sid)
            # Only variables that shared a schema with ``var`` changed.
            for other in merged & remaining:
                costs[other] = cost(other)
    return tuple(order)


def dangling_bound_vars(query: FAQQuery) -> FrozenSet[str]:
    """The bound variables that occur in no factor: any of them makes
    variable elimination reject the query, and only the naive solver
    answers it."""
    occurs: Set[str] = set()
    for f in query.factors.values():
        occurs.update(f.schema)
    return frozenset(query.bound_vars - occurs)


def _resolve_order(
    query: FAQQuery, order: Optional[Sequence[str]]
) -> Optional[Tuple[str, ...]]:
    """Validate a caller-supplied order (``None`` passes through).

    Raises:
        ValueError: if the order does not cover the bound variables, or a
            custom order is supplied for a mixed-operator query
            (reordering is only sound for FAQ-SS).
    """
    if order is None:
        return None
    order = tuple(order)
    if set(order) != query.bound_vars:
        raise ValueError("order must list exactly the bound variables")
    if not query.is_faq_ss() and order != query.elimination_order():
        raise ValueError(
            "custom elimination orders are only sound for FAQ-SS queries"
        )
    return order


def _default_order(query: FAQQuery) -> Tuple[str, ...]:
    """The listed right-to-left order for mixed-operator queries,
    :func:`greedy_elimination_order` for FAQ-SS."""
    if query.is_faq_ss():
        return greedy_elimination_order(query)
    return query.elimination_order()


def solve_variable_elimination(
    query: FAQQuery,
    order: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
    solver: Optional[str] = None,
) -> Factor:
    """Evaluate ``query`` by sequential variable elimination.

    Args:
        query: The FAQ instance.  Every bound variable must occur in at
            least one factor (use :func:`repro.faq.naive.solve_naive` for
            queries with dangling bound variables).
        order: Optional elimination order over the bound variables.  When
            omitted: the listed right-to-left order for mixed-operator
            queries, or :func:`greedy_elimination_order` for FAQ-SS.
        backend: Optional storage backend override (``"dict"`` or
            ``"columnar"``) applied to the factors for this solve only;
            ``None`` keeps the query's own backend.
        solver: ``"operator"`` (default) evaluates operator at a time
            over ``query.factors``; ``"compiled"`` reads the query's
            interned factors, fuses every plain-⊕ step
            (:func:`repro.faq.executor.eliminate_fused`) and reuses the
            order cached for the query's structure.  Answers are
            identical.

    Returns:
        A factor over ``query.free_vars``.

    Raises:
        ValueError: if a bound variable occurs in no factor, or a custom
            ``order`` is supplied for a mixed-operator query (reordering
            is only sound for FAQ-SS).
    """
    solver = validate_solver(solver)
    if backend is not None:
        query = query.with_backend(backend)
    dangling = dangling_bound_vars(query)
    if dangling:
        raise ValueError(
            f"bound variables in no factor: {sorted(dangling, key=str)}; "
            "use solve_naive for such queries"
        )
    requested = _resolve_order(query, order)

    def resolve() -> Tuple[str, ...]:
        return _default_order(query) if requested is None else requested

    compiled = solver == SOLVER_COMPILED
    if compiled:
        order = cached_elimination_order(query, requested, resolve)
        inputs = query.interned_factors()
    else:
        order = resolve()
        inputs = query.factors

    semiring = query.semiring
    live: List[Factor] = list(inputs.values())
    for variable in order:
        touching: List[Factor] = []
        rest: List[Factor] = []
        for f in live:
            (touching if variable in f.schema else rest).append(f)
        aggregate = query.aggregate_for(variable)
        combine = aggregate.resolve(semiring)
        if compiled and aggregate.is_plain_sum:
            reduced = eliminate_fused(touching, variable, semiring)
        elif aggregate.needs_full_domain:
            reduced = marginalize(
                multi_join(touching), variable, combine, query.domains[variable]
            )
        else:
            reduced = join_marginalize(touching, variable, combine)
        live = rest + [reduced]

    result = multi_join(live)
    if tuple(result.schema) != query.free_vars:
        result = project(result, query.free_vars)
    return result
