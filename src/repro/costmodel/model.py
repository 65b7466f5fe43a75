"""The cost-model surface: covered cells, prediction, digests.

A **cell** is a ``(query family, topology family, placement, engine)``
4-tuple — the granularity at which the model claims exactness.
:data:`COVERED_CELLS` enumerates every claimed cell explicitly; for a
covered cell, :func:`predict_costs` must match the engines bit-for-bit
on all four metrics, and the lab gates that equality per run.  Anything
outside the enumeration is *uncovered*: reported and listed, never
silently skipped, never gated.

Prediction composes the two layers:

* the **structural** closed forms of :mod:`repro.costmodel.formulas`
  give ``total_bits`` and ``bits_per_edge`` exactly;
* the **timing recurrence** ρ of :mod:`repro.costmodel.timing` gives
  ``rounds`` and ``max_edge_bits_per_round`` exactly.

The two layers are cross-checked against each other on every prediction
(the recurrence's bit totals must equal the closed forms), so internal
drift raises :class:`CostModelError` instead of producing a confident
wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .expr import Expr
from .formulas import structural_costs
from .skeleton import CostSkeleton, extract_skeleton
from .timing import CostModelError, evaluate_timing

Cell = Tuple[str, str, str, str]

#: The four metrics the model must predict exactly on covered cells —
#: the key set of both sides of a result's ``cost_model`` comparison.
COST_METRIC_NAMES: Tuple[str, ...] = (
    "rounds",
    "total_bits",
    "max_edge_bits_per_round",
    "bits_per_edge_digest",
)

#: Query families that embed the TRIBES hard instances (these are the
#: only families the ``worst-case`` placement accepts).
HARD_QUERY_FAMILIES: Tuple[str, ...] = ("hard-forest", "hard-path", "hard-star")
#: Random-content query families (round-robin / single placements).
RANDOM_QUERY_FAMILIES: Tuple[str, ...] = ("acyclic", "degenerate", "forest", "tree")
#: Topology families the model prices (all lab families).
TOPOLOGY_FAMILIES: Tuple[str, ...] = (
    "barbell", "clique", "expander", "grid", "hypercube", "line",
    "regular", "ring", "star", "tree", "two-party",
)
#: Protocol engines (accounting-identical by the engine-parity gate, so
#: one prediction covers both — but coverage is still tracked per cell).
ENGINES: Tuple[str, ...] = ("generator", "compiled")


def _enumerate_covered() -> frozenset:
    cells = set()
    placements = {
        **{q: ("round-robin", "single", "worst-case") for q in HARD_QUERY_FAMILIES},
        **{q: ("round-robin", "single") for q in RANDOM_QUERY_FAMILIES},
    }
    for query, assignments in placements.items():
        for assignment in assignments:
            for topology in TOPOLOGY_FAMILIES:
                for engine in ENGINES:
                    cells.add((query, topology, assignment, engine))
    return frozenset(cells)


#: Every (query × topology × placement × engine) cell the model claims
#: to price **exactly**.  The lab asserts equality on covered cells and
#: reports (never gates) the rest.  To extend coverage, add the cell
#: here and let the fuzz oracle + hypothesis suite prove the claim —
#: see docs/costmodel.md for the recipe.
COVERED_CELLS: frozenset = _enumerate_covered()


def cell_of(spec) -> Cell:
    """The coverage cell of a :class:`~repro.lab.spec.ScenarioSpec`."""
    return (spec.query, spec.topology, spec.assignment, spec.engine)


def is_covered(spec) -> bool:
    """Whether the model claims exact predictions for this spec."""
    return cell_of(spec) in COVERED_CELLS


def edge_digest(bits_per_edge: Mapping[Tuple[str, str], int]) -> str:
    """A stable digest of a directed-link bit map.

    Canonicalizes to sorted ``"u->v": bits`` pairs, so the measured map
    (simulator) and the predicted map (model) agree iff they are equal
    as functions — zero-bit links are dropped on both sides first.
    """
    canon = {
        f"{src}->{dst}": int(bits)
        for (src, dst), bits in bits_per_edge.items()
        if bits
    }
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CostPrediction:
    """A zero-execution cost prediction for one scenario.

    Attributes:
        cell: The (query, topology, assignment, engine) coverage cell.
        covered: Whether the model claims exactness for that cell.
        rounds / total_bits / max_edge_bits_per_round / bits_per_edge:
            The four predicted metrics (exact on covered cells).
        skeleton: The plan skeleton the prediction was derived from.
        total_bits_expr / bits_per_edge_exprs / environment: The
            symbolic layer — closed forms plus the concrete symbol
            values they were evaluated at.
    """

    cell: Cell
    covered: bool
    rounds: int
    total_bits: int
    max_edge_bits_per_round: int
    bits_per_edge: Dict[Tuple[str, str], int]
    skeleton: CostSkeleton
    total_bits_expr: Expr
    bits_per_edge_exprs: Dict[Tuple[str, str], Expr]
    environment: Dict[str, int]

    @property
    def bits_per_edge_digest(self) -> str:
        return edge_digest(self.bits_per_edge)

    def metrics(self) -> Dict[str, object]:
        """The comparison payload recorded in result `cost_model` blocks."""
        return {
            "rounds": self.rounds,
            "total_bits": self.total_bits,
            "max_edge_bits_per_round": self.max_edge_bits_per_round,
            "bits_per_edge_digest": self.bits_per_edge_digest,
        }


def predict_from_skeleton(
    skeleton: CostSkeleton, cell: Cell, max_rounds: int = 1_000_000
) -> CostPrediction:
    """Price a skeleton: closed forms + recurrence, cross-checked."""
    total_expr, edge_exprs, env = structural_costs(skeleton)
    timing = evaluate_timing(skeleton, max_rounds=max_rounds)
    structural_total = total_expr.evaluate(env)
    structural_edges = {
        link: expr.evaluate(env) for link, expr in edge_exprs.items()
    }
    measured_edges = {
        link: bits for link, bits in timing.bits_per_edge.items() if bits
    }
    structural_edges = {
        link: bits for link, bits in structural_edges.items() if bits
    }
    if structural_total != timing.total_bits or structural_edges != measured_edges:
        raise CostModelError(
            "structural formulas disagree with the timing recurrence: "
            f"total {structural_total} vs {timing.total_bits} "
            f"(cell {cell}) — cost-model internal drift"
        )
    return CostPrediction(
        cell=cell,
        covered=cell in COVERED_CELLS,
        rounds=timing.rounds,
        total_bits=timing.total_bits,
        max_edge_bits_per_round=timing.max_edge_bits_per_round,
        bits_per_edge=dict(timing.bits_per_edge),
        skeleton=skeleton,
        total_bits_expr=total_expr,
        bits_per_edge_exprs=edge_exprs,
        environment=env,
    )


def predict_costs(spec, plan, nodes: Sequence[str], query) -> CostPrediction:
    """Predict the four cost metrics for a scenario — without running it.

    Args:
        spec: The :class:`~repro.lab.spec.ScenarioSpec` to price.
        plan: The scenario's compiled
            :class:`~repro.protocols.faq_protocol.ProtocolPlan`
            (:func:`repro.pipeline.plan_scenario` compiles it — still
            zero protocol rounds — and the lab's certification path
            passes the executed plan so nothing is compiled twice).
        nodes: All topology nodes.
        query: The scenario's :class:`~repro.faq.query.FAQQuery` — the
            relations the plan was compiled from but does not hold.
    """
    skeleton = extract_skeleton(plan, tuple(nodes), query)
    return predict_from_skeleton(
        skeleton, cell_of(spec), max_rounds=spec.max_rounds
    )


def coverage_report(cells: Iterable[Cell]) -> Dict[str, object]:
    """Summarize observed cells against :data:`COVERED_CELLS`.

    Args:
        cells: One cell per run (duplicates count as runs).

    Returns:
        ``runs`` / ``covered_runs``, plus sorted unique covered and
        uncovered cell lists (as ``query@topology/assignment/engine``
        strings — the log format the lab prints).
    """
    cells = list(cells)
    covered = [c for c in cells if c in COVERED_CELLS]
    uncovered = [c for c in cells if c not in COVERED_CELLS]
    return {
        "runs": len(cells),
        "covered_runs": len(covered),
        "covered_cells": sorted({format_cell(c) for c in covered}),
        "uncovered_cells": sorted({format_cell(c) for c in uncovered}),
    }


def format_cell(cell: Cell) -> str:
    """Render a cell as ``query@topology/assignment/engine``."""
    query, topology, assignment, engine = cell
    return f"{query}@{topology}/{assignment}/{engine}"
