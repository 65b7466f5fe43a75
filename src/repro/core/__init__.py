"""The planner: the repository's headline API."""

from .planner import (
    ExecutionReport,
    Planner,
    answer_value,
    assign_round_robin,
    assign_single_player,
    worst_case_assignment,
)

__all__ = [
    "Planner",
    "ExecutionReport",
    "answer_value",
    "assign_round_robin",
    "assign_single_player",
    "worst_case_assignment",
]
