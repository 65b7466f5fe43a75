"""Plan skeletons — the structural facts the cost formulas range over.

A :class:`CostSkeleton` is everything about a compiled
:class:`~repro.protocols.faq_protocol.ProtocolPlan` that communication
cost depends on, and nothing else: per-star Steiner-tree shapes and slot
counts, the final routing tree with per-origin payload counts, and the
three bit charges (tuple, value, capacity).  Extracting it runs **zero
protocol rounds** — the only computation it performs is the players'
*free* local work (Model 2.1 charges nothing for internal computation),
replayed here sequentially over the relations the caller passes in (a
plan holds none).  The skeleton's type and the round recurrence that
times it live in :mod:`repro.protocols.timing`, where a compiled run
builds the same skeleton from its own payload counts:

* The center of each star is broadcast in its **original** size: a GHD
  node is the center of exactly one star, and the stars run bottom-up,
  so no earlier star can have rebuilt it.  The slice count of tree ``j``
  is therefore static — the plan's ``StarPhase.center_rows`` — and this
  half reads no data.
* The only data-dependent sizes are the **final-edge payloads**: a star
  rebuilds its center with semiring-zero rows dropped, so how many rows
  survive to be routed to the output player depends on the data.  The
  replay recomputes exactly those counts — and only for the stars that
  feed a routed relation — with the shared Phase-B scorer
  (:func:`~repro.protocols.faq_protocol.score_rows`) and the compiled
  run's fold order (:func:`~repro.protocols.compiler.fold_tree_slots`)
  — both imported, not re-implemented, so the model cannot drift from
  the protocol.

Both engines and all solver/backend planes produce identical accounting
(the lab's parity gates enforce this), so one skeleton prices every
plane of a scenario.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..faq import FAQQuery
from ..protocols.compiler import fold_tree_slots
from ..protocols.faq_protocol import (
    ProtocolPlan,
    score_rows,
    star_contributions,
)
from ..protocols.timing import CostSkeleton, plan_skeleton
from ..semiring import Factor


def _replay_final_counts(
    plan: ProtocolPlan, query: FAQQuery
) -> Dict[str, int]:
    """Per-origin final-phase payload counts, via free local replay.

    Demand-driven: only a final relation owned by another player than
    the output player is routed, and its surviving size depends only on
    the stars below it.  Walking the stars top-down from those relations
    (a replayed star's leaves are needed in turn) selects the stars to
    replay; the rest — all of them when nothing is routed — cost nothing.

    The selected stars run bottom-up over one relation state: score
    every broadcast row with the engines' shared Phase-B scorer, fold
    per tree in the convergecast's association order, and rebuild the
    center (zero-annotated rows drop, exactly like ``Factor``'s
    constructor).  Each relation is a leaf of at most one star and the
    center of at most one (before its parent's star), so the sequential
    state sees every factor exactly as the owning player would.
    """
    semiring = query.semiring
    routed = [
        name for name in plan.final_edges
        if plan.assignment[name] != plan.output_player
    ]
    needed = set(routed)
    feeding: List = []
    for star in reversed(plan.stars):
        if star.center_edge in needed:
            needed.update(star.leaf_edges)
            feeding.append(star)

    state: Dict[str, Factor] = dict(query.factors)
    for star in reversed(feeding):
        factor = state[star.center_edge]
        rows = list(factor.tuples())
        ranges = star.slot_plan.slice_ranges(len(rows))
        slots_by_node: Dict[str, List] = {}
        for node in star.slot_plan.terminals:
            contributions = star_contributions(plan, query, star, state, node)
            if contributions:
                slots_by_node[node] = score_rows(
                    semiring, star.center_schema, contributions, rows
                )
        combined: List = []
        for j, (start, stop) in enumerate(ranges):
            combined.extend(
                fold_tree_slots(
                    plan.schedule,
                    star,
                    j,
                    slots_by_node,
                    start,
                    stop,
                    lambda a, b: [semiring.mul(x, y) for x, y in zip(a, b)],
                    lambda length: [semiring.one] * length,
                )
            )
        new_rows = {tuple(row): combined[i] for i, row in enumerate(rows)}
        state[star.center_edge] = Factor(
            star.center_schema, new_rows, semiring, star.center_edge
        )

    counts: Dict[str, int] = {}
    for name in routed:
        owner = plan.assignment[name]
        counts[owner] = counts.get(owner, 0) + len(state[name])
    return counts


def extract_skeleton(
    plan: ProtocolPlan, nodes: Tuple[str, ...], query: FAQQuery
) -> CostSkeleton:
    """Distill a compiled plan into its cost skeleton.

    Args:
        plan: The compiled protocol plan.
        nodes: All topology nodes (every node runs a — possibly empty —
            program, and step order is the sorted node order).
        query: The instance's relations, read by the final-payload
            replay only (any backend: the counts are the same).
    """
    return plan_skeleton(plan, nodes, _replay_final_counts(plan, query))
