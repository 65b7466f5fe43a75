"""Naive FAQ solver: materialize the full join, then aggregate in order.

This is the semantic ground truth for every other solver: by definition the
FAQ answer is the aggregate sequence applied right-to-left to the product
``⊗_e f_e``, and joining all factors materializes exactly that product
(absent tuples carry the annihilating zero and may be omitted from the
listing — the one subtlety is product aggregates, which
:func:`repro.faq.operations.marginalize` handles by folding over the full
domain).
"""

from __future__ import annotations

from ..semiring import Factor
from .operations import (
    aggregate_absent_variable,
    marginalize,
    multi_join,
    project,
)
from .plan import SOLVER_COMPILED, validate_solver
from .query import FAQQuery


def solve_naive(
    query: FAQQuery,
    backend: str | None = None,
    solver: str | None = None,
) -> Factor:
    """Evaluate ``query`` by brute force.

    Args:
        query: The FAQ instance.
        backend: Optional storage backend override (``"dict"`` or
            ``"columnar"``) applied to the factors for this solve only;
            ``None`` keeps the query's own backend.
        solver: ``"operator"`` (default) or ``"compiled"`` — the same
            join-then-aggregate loop (it is the semantic ground truth, so
            nothing is fused) over the query's interned factors
            (:meth:`~repro.faq.query.FAQQuery.interned_factors`).

    Returns:
        A factor over ``query.free_vars`` (zero-arity for BCQ; read it with
        :func:`repro.faq.operations.scalar_value`).
    """
    solver = validate_solver(solver)
    if backend is not None:
        query = query.with_backend(backend)
    factors = query.factors
    if solver == SOLVER_COMPILED:
        factors = query.interned_factors()
    joined = multi_join(factors.values(), name="joined")
    for variable in query.elimination_order():
        aggregate = query.aggregate_for(variable)
        combine = aggregate.resolve(query.semiring)
        if variable in joined.schema:
            full_domain = (
                query.domains[variable] if aggregate.needs_full_domain else None
            )
            joined = marginalize(joined, variable, combine, full_domain)
        else:
            joined = aggregate_absent_variable(
                joined, combine, len(query.domains[variable])
            )
    # Order the output schema as the query requests.
    if tuple(joined.schema) != query.free_vars:
        joined = project(joined, query.free_vars)
    return joined
