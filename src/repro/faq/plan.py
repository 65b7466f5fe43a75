"""The solver axis and the elimination-order cache of the compiled solver.

Both FAQ solvers run the same variable-elimination loop
(:func:`repro.faq.variable_elimination.solve_variable_elimination`).
``solver="compiled"`` differs in three places: it pool-interns the
inputs once, sends every plain-⊕ elimination step to the fused
join+marginalize kernel (:mod:`repro.faq.executor`), and takes its
elimination order from :data:`PLAN_CACHE` instead of recomputing it.

The cache is an :class:`~repro.core.memo.LRUMemo` keyed by the query's
*structure* — factor schemas, free variables, bound order, aggregate
signature, semiring name and storage backend, never the data — so a lab
grid sweep that varies only seed/N/assignment computes the greedy order
once per structure.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from ..core.memo import LRUMemo
from ..obs.counters import COUNTERS
from .query import FAQQuery

#: The FAQ solver execution strategies: ``"operator"`` evaluates operator
#: at a time through :mod:`repro.faq.operations`; ``"compiled"`` interns
#: the inputs, fuses each plain-⊕ elimination step into one kernel and
#: reuses the cached elimination order.  Both produce identical answers.
SOLVER_OPERATOR = "operator"
SOLVER_COMPILED = "compiled"
SOLVERS: Tuple[str, ...] = (SOLVER_OPERATOR, SOLVER_COMPILED)


def validate_solver(solver: Optional[str]) -> str:
    """Normalize and check a solver name (``None`` means ``"operator"``).

    Raises:
        ValueError: on an unknown solver name.
    """
    if solver is None:
        return SOLVER_OPERATOR
    if solver not in SOLVERS:
        raise ValueError(
            f"unknown solver {solver!r}; known: {', '.join(SOLVERS)}"
        )
    return solver


# ---------------------------------------------------------------------------
# The order cache
# ---------------------------------------------------------------------------


#: The process-wide order cache every ``solver="compiled"`` solve uses
#: (one of the structural memos :func:`~repro.core.memo.clear_all_memos`
#: empties).
PLAN_CACHE = LRUMemo("faq.plan_cache", maxsize=512)


def _order_key(
    query: FAQQuery, order: Optional[Sequence[Any]]
) -> Optional[Tuple[Any, ...]]:
    """Everything the cached order depends on, as a plain tuple.

    Covers the factor names and schema *orders* (join output schemas
    follow them), free variables, bound order, each bound variable's
    aggregate signature, semiring name, storage backend and the caller's
    ``order`` — but never the factor contents, domains or seeds, which
    is what lets a grid sweep over seed/N/assignment share one entry.

    Returns ``None`` for uncacheable queries: a custom aggregate
    ``combine`` callable (unhashable semantics).
    """
    aggregates = []
    for v in query.bound_order:
        agg = query.aggregate_for(v)
        if agg.combine is not None:
            return None  # custom callables have no stable identity
        aggregates.append((agg.name, agg.kind))
    return (
        tuple((name, tuple(f.schema)) for name, f in query.factors.items()),
        query.free_vars,
        query.bound_order,
        tuple(aggregates),
        query.semiring.name,
        query.backend,
        None if order is None else tuple(order),
    )


def cached_elimination_order(
    query: FAQQuery,
    order: Optional[Sequence[Any]],
    resolve: Callable[[], Tuple[Any, ...]],
) -> Tuple[Any, ...]:
    """The elimination order cached for ``query``'s structure and the
    caller's ``order``; on a miss, ``resolve()`` — stored unless the
    query is uncacheable."""
    key = _order_key(query, order)
    if key is None:
        COUNTERS.increment("plan_cache.uncacheable")
        return resolve()
    COUNTERS.increment("plan_cache.lookups")
    return PLAN_CACHE.get_or_compute(key, resolve)
