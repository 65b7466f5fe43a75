"""Plan skeletons — the structural facts the cost formulas range over.

A :class:`CostSkeleton` is everything about a compiled
:class:`~repro.protocols.faq_protocol.ProtocolPlan` that communication
cost depends on, and nothing else: per-star Steiner-tree shapes and slot
counts, the final routing tree with per-origin payload counts, and the
three bit charges (tuple, value, capacity).  Extracting it runs **zero
protocol rounds**.  The skeleton's type and the round recurrence that
times it live in :mod:`repro.protocols.timing`, where a compiled run
builds the same skeleton from its own payload counts:

* The center of each star is broadcast in its **original** size: a GHD
  node is the center of exactly one star, and the stars run bottom-up,
  so no earlier star can have rebuilt it.  The slice count of tree ``j``
  is therefore static — the plan's ``StarPhase.center_rows`` — and this
  half reads no data.
* The only data-dependent sizes are the **final-edge payloads**: a star
  rebuilds its center with semiring-zero rows dropped, so how many rows
  survive to be routed to the output player depends on the data.  They
  come from the compiled run's own star pass
  (:func:`~repro.protocols.compiler.payload_counts`), run over just the
  stars that feed a routed relation: the players' *free* local work
  (Model 2.1 charges nothing for it), with no copy here to drift from
  the protocol.  The generator engine, which ships real tuples, checks
  those counts: the lab's measured = predicted gate on every generator
  plane, and engine parity.

Both engines and all solver/backend planes produce identical accounting
(the lab's parity gates enforce this), so one skeleton prices every
plane of a scenario.
"""

from __future__ import annotations

from typing import Tuple

from ..faq import FAQQuery
from ..protocols.compiler import payload_counts
from ..protocols.faq_protocol import ProtocolPlan
from ..protocols.timing import CostSkeleton, plan_skeleton


def extract_skeleton(
    plan: ProtocolPlan, nodes: Tuple[str, ...], query: FAQQuery
) -> CostSkeleton:
    """Distill a compiled plan into its cost skeleton.

    Args:
        plan: The compiled protocol plan.
        nodes: All topology nodes (every node runs a — possibly empty —
            program, and step order is the sorted node order).
        query: The instance's relations, read by the star pass that
            counts the final payloads only (any backend: the counts are
            the same).
    """
    return plan_skeleton(plan, nodes, payload_counts(plan, query))
