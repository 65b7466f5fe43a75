"""The cost-model surface: prediction and digests.

:func:`predict_costs` prices every scenario the pipeline can build, and
its prediction must match the engines bit-for-bit on all four metrics;
the lab gates that equality on every run.

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
from typing import Dict, Mapping, Sequence, Tuple

from .expr import Expr
from .formulas import structural_costs
from .skeleton import CostSkeleton, extract_skeleton
from .timing import CostModelError, evaluate_timing

#: The four metrics the model must predict exactly on every run —
#: the key set of both sides of a result's ``cost_model`` comparison.
COST_METRIC_NAMES: Tuple[str, ...] = (
    "rounds",
    "total_bits",
    "max_edge_bits_per_round",
    "bits_per_edge_digest",
)


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
        rounds / total_bits / max_edge_bits_per_round / bits_per_edge:
            The four predicted metrics.
        skeleton: The plan skeleton the prediction was derived from.
        total_bits_expr / bits_per_edge_exprs / environment: The
            symbolic layer — closed forms plus the concrete symbol
            values they were evaluated at.
    """

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
    total_expr, edge_exprs, env = structural_costs(skeleton)
    timing = evaluate_timing(skeleton, max_rounds=spec.max_rounds)
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
            "— cost-model internal drift"
        )
    return CostPrediction(
        rounds=timing.rounds,
        total_bits=timing.total_bits,
        max_edge_bits_per_round=timing.max_edge_bits_per_round,
        bits_per_edge=dict(timing.bits_per_edge),
        skeleton=skeleton,
        total_bits_expr=total_expr,
        bits_per_edge_exprs=edge_exprs,
        environment=env,
    )
