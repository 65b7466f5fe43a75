"""The FAQ / FAQ-SS query engine (paper Sections 1, 5 and Appendix G)."""

from .message_passing import (
    assign_factors_to_ghd,
    solve_message_passing,
    upward_pass_message,
)
from .executor import fused_join_marginalize
from .naive import solve_naive
from .operations import (
    aggregate_absent_variable,
    join,
    marginalize,
    multi_join,
    project,
    scalar,
    scalar_value,
    semijoin,
)
from .plan import (
    PLAN_CACHE,
    SOLVER_COMPILED,
    SOLVER_OPERATOR,
    SOLVERS,
    validate_solver,
)
from .query import (
    PRODUCT,
    SUM,
    Aggregate,
    FAQQuery,
    bcq,
    marginal_query,
    natural_join_query,
)
from .reference import solve
from .variable_elimination import (
    greedy_elimination_order,
    solve_variable_elimination,
)

__all__ = [
    "FAQQuery",
    "Aggregate",
    "SUM",
    "PRODUCT",
    "bcq",
    "natural_join_query",
    "marginal_query",
    "join",
    "multi_join",
    "semijoin",
    "project",
    "marginalize",
    "aggregate_absent_variable",
    "scalar",
    "scalar_value",
    "solve",
    "solve_naive",
    "solve_variable_elimination",
    "greedy_elimination_order",
    "solve_message_passing",
    "assign_factors_to_ghd",
    "upward_pass_message",
    "SOLVERS",
    "SOLVER_OPERATOR",
    "SOLVER_COMPILED",
    "validate_solver",
    "PLAN_CACHE",
    "fused_join_marginalize",
]
