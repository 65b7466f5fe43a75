"""GHDs, GYO-GHDs, MD-GHDs and the internal-node-width y(H)."""

from .ghd import GHD, GHDNode, InvalidGHD
from .gyo_ghd import CORE_ROOT_ID, gyo_ghd
from .md_ghd import (
    internal_nodes_bottom_up,
    is_md_ghd,
    md_ghd,
    private_attribute_witness,
)
from .width import (
    EXACT_SEARCH_LIMIT,
    best_gyo_ghd,
    connector,
    exact_internal_node_width,
    internal_node_width,
    width_report,
)

__all__ = [
    "GHD",
    "GHDNode",
    "InvalidGHD",
    "gyo_ghd",
    "CORE_ROOT_ID",
    "md_ghd",
    "is_md_ghd",
    "internal_nodes_bottom_up",
    "private_attribute_witness",
    "best_gyo_ghd",
    "internal_node_width",
    "exact_internal_node_width",
    "connector",
    "width_report",
    "EXACT_SEARCH_LIMIT",
]
