"""The centralized reference solve, for one query and for a stack of them.

:func:`solve` is the ground truth every plane is checked against — the
Planner's correctness oracle, the output player's free residual
computation inside the protocols, and the serving plane's online path
are all this one call.

:func:`solve_stacked` answers several *structurally identical* queries
(see :func:`structural_signature`) with one solver dispatch: every
relation gains a leading :data:`SCENARIO_VAR` column, the stacked
relations share one dictionary pool inside the columnar backend, and the
answer is split back into per-member rows.  Its one caller is the lab's
batched runner, which uses it as a cross-check; the query service
answers each request with :func:`solve` alone.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..semiring import Factor
from .naive import solve_naive
from .plan import SOLVER_COMPILED, SOLVER_OPERATOR
from .query import FAQQuery
from .variable_elimination import (
    dangling_bound_vars,
    solve_variable_elimination,
)

#: The leading stacking variable: member index within the stack.
SCENARIO_VAR = "__scenario__"

Rows = Dict[Tuple[Any, ...], Any]


def solve(query: FAQQuery, solver: str = SOLVER_OPERATOR) -> Factor:
    """Variable elimination, or the naive solver for the queries it
    rejects: a bound variable that occurs in no factor."""
    if dangling_bound_vars(query):
        return solve_naive(query, solver=solver)
    return solve_variable_elimination(query, solver=solver)


def structural_signature(query: FAQQuery) -> Optional[str]:
    """The exact stacking contract of a materialized query.

    Two queries stack iff their signatures are equal: same factor names
    with the same ordered schemas, same free variables, same semiring.
    Queries with explicit (non-FAQ-SS) aggregates return ``None`` —
    product aggregates fold over full domains, which a cross-instance
    domain union would silently change, so they never stack.
    """
    if query.aggregates:
        return None
    return json.dumps(
        {
            "factors": sorted(
                (name, list(f.schema)) for name, f in query.factors.items()
            ),
            "free_vars": list(query.free_vars),
            "semiring": query.semiring.name,
        },
        sort_keys=True,
    )


def stack_queries(queries: Sequence[FAQQuery]) -> FAQQuery:
    """One tensor program answering every member query at once.

    Every relation gains a leading :data:`SCENARIO_VAR` column holding
    the member index; domains are the per-variable first-seen union
    across members (content differs, shape does not — enforced by
    :func:`structural_signature`).  The columnar backend then interns
    all stacked columns through one shared dictionary pool, so the
    group executes as a single extra-leading-axis dispatch.
    """
    base = queries[0]
    edges = {
        name: (SCENARIO_VAR,) + tuple(factor.schema)
        for name, factor in base.factors.items()
    }
    domains: Dict[str, Tuple[Any, ...]] = {
        SCENARIO_VAR: tuple(range(len(queries)))
    }
    merged: Dict[str, Dict[Any, None]] = {}
    for query in queries:
        for var, dom in query.domains.items():
            merged.setdefault(var, {}).update(dict.fromkeys(dom))
    domains.update({var: tuple(vals) for var, vals in merged.items()})
    factors: Dict[str, Factor] = {}
    for name, base_factor in base.factors.items():
        schema = (SCENARIO_VAR,) + tuple(base_factor.schema)
        rows: Rows = {}
        for index, query in enumerate(queries):
            for key, value in query.factors[name].rows.items():
                rows[(index,) + tuple(key)] = value
        factors[name] = Factor(schema, rows, base.semiring, name=name)
    return FAQQuery(
        hypergraph=Hypergraph(edges),
        factors=factors,
        domains=domains,
        free_vars=(SCENARIO_VAR,) + tuple(base.free_vars),
        semiring=base.semiring,
        name=f"stacked[{len(queries)}]:{base.name or 'faq'}",
        backend="columnar",
    )


def unstack_answers(
    answer: Factor, free_vars: Sequence[str], count: int
) -> List[Rows]:
    """Split a stacked answer back into per-scenario row dicts."""
    schema = tuple(answer.schema)
    scenario_at = schema.index(SCENARIO_VAR)
    positions = [schema.index(var) for var in free_vars]
    per: List[Rows] = [{} for _ in range(count)]
    for key, value in answer.rows.items():
        per[key[scenario_at]][tuple(key[at] for at in positions)] = value
    return per


def solve_stacked(
    queries: Sequence[FAQQuery],
) -> List[Tuple[Tuple[str, ...], Rows]]:
    """Answer every query with one stacked solve on the compiled fast
    path: one ``(schema, rows)`` pair per member, in member order."""
    answer = solve(stack_queries(queries), SOLVER_COMPILED)
    free_vars = tuple(queries[0].free_vars)
    return [
        (free_vars, rows)
        for rows in unstack_answers(answer, free_vars, len(queries))
    ]
