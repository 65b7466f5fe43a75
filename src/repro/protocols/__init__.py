"""Distributed protocols: the paper's upper bounds, executable."""

from .faq_protocol import (
    ENGINES,
    FAQProtocolReport,
    ProtocolPlan,
    StarPhase,
    compile_plan,
    default_value_bits,
    run_distributed_faq,
    validate_engine,
)
from .primitives import (
    Mailbox,
    broadcast_node,
    convergecast_node,
    parallel_subphases,
    route_to_sink_node,
)
from .schedule import EOS_BITS, HEADER_BITS
from .set_intersection import (
    SlotPlan,
    combine_over_packing,
    plan_slots,
    run_set_intersection,
    star_over_packing,
)

__all__ = [
    "Mailbox",
    "broadcast_node",
    "convergecast_node",
    "route_to_sink_node",
    "parallel_subphases",
    "HEADER_BITS",
    "EOS_BITS",
    "SlotPlan",
    "plan_slots",
    "combine_over_packing",
    "run_set_intersection",
    "star_over_packing",
    "StarPhase",
    "ProtocolPlan",
    "FAQProtocolReport",
    "compile_plan",
    "default_value_bits",
    "run_distributed_faq",
    "ENGINES",
    "validate_engine",
]
