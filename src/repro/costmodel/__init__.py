"""Symbolic communication-cost model — exact, per-run, zero-execution.

The lab's third certification axis (after answer correctness and the
lower-bound oracles): for every covered
(query × topology × placement × engine) cell, this package predicts
``rounds``, ``total_bits``, ``bits_per_edge`` and
``max_edge_bits_per_round`` from the plan skeleton alone and the lab
asserts **equality** against the measured run.  See docs/costmodel.md
for the symbolic table and the how-to-add-a-cell recipe.
"""

from .expr import (
    Expr,
    add,
    ceildiv,
    const,
    evaluate,
    floordiv,
    have_sympy,
    max_,
    mul,
    sym,
    to_sympy,
)
from .formulas import (
    KERNEL_FORMULAS,
    format_kernel_table,
    structural_costs,
    symbolic_bits_per_edge,
    symbolic_environment,
)
from .model import (
    COST_METRIC_NAMES,
    COVERED_CELLS,
    Cell,
    CostPrediction,
    cell_of,
    coverage_report,
    edge_digest,
    format_cell,
    is_covered,
    predict_costs,
    predict_from_skeleton,
)
from .skeleton import CostSkeleton, RouteSkeleton, StarSkeleton, extract_skeleton
from .timing import CostModelError, CostVector, evaluate_timing

__all__ = [
    "COST_METRIC_NAMES",
    "COVERED_CELLS",
    "Cell",
    "CostModelError",
    "CostPrediction",
    "CostSkeleton",
    "CostVector",
    "Expr",
    "KERNEL_FORMULAS",
    "RouteSkeleton",
    "StarSkeleton",
    "add",
    "ceildiv",
    "cell_of",
    "const",
    "coverage_report",
    "edge_digest",
    "evaluate",
    "evaluate_timing",
    "extract_skeleton",
    "floordiv",
    "format_cell",
    "format_kernel_table",
    "have_sympy",
    "is_covered",
    "max_",
    "mul",
    "predict_costs",
    "predict_from_skeleton",
    "structural_costs",
    "sym",
    "symbolic_bits_per_edge",
    "symbolic_environment",
    "to_sympy",
]
