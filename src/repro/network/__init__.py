"""Topologies, cuts, Steiner packing and the round simulator."""

from .mincut import mincut, mincut_partition
from .simulator import (
    CapacityExceeded,
    Message,
    NodeContext,
    SimulationError,
    SimulationResult,
    Simulator,
    passive_relay,
    run_protocol,
)
from .steiner import (
    SteinerTree,
    find_steiner_tree,
    optimize_delta,
    pack_steiner_trees,
    scan_steiner_packings,
    st_value,
)
from .topology import Topology

__all__ = [
    "Topology",
    "mincut",
    "mincut_partition",
    "SteinerTree",
    "find_steiner_tree",
    "pack_steiner_trees",
    "scan_steiner_packings",
    "st_value",
    "optimize_delta",
    "Simulator",
    "SimulationResult",
    "Message",
    "NodeContext",
    "CapacityExceeded",
    "SimulationError",
    "passive_relay",
    "run_protocol",
]
