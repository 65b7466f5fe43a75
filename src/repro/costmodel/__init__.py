"""Symbolic communication-cost model — exact, per-run, zero-execution.

The lab's third certification axis (after answer correctness and the
lower-bound oracles): for every scenario the pipeline can build, this
package predicts ``rounds``, ``total_bits``, ``bits_per_edge`` and
``max_edge_bits_per_round`` from the plan skeleton alone and the lab
asserts **equality** against the measured run.  See docs/costmodel.md
for the symbolic table and the how-to-add-a-family recipe.
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
    CostPrediction,
    edge_digest,
    predict_costs,
)
from ..protocols.timing import (
    CostModelError,
    CostSkeleton,
    CostVector,
    RouteSkeleton,
    StarSkeleton,
    evaluate_timing,
)
from .skeleton import extract_skeleton

__all__ = [
    "COST_METRIC_NAMES",
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
    "const",
    "edge_digest",
    "evaluate",
    "evaluate_timing",
    "extract_skeleton",
    "floordiv",
    "format_kernel_table",
    "have_sympy",
    "max_",
    "mul",
    "predict_costs",
    "structural_costs",
    "sym",
    "symbolic_bits_per_edge",
    "symbolic_environment",
    "to_sympy",
]
