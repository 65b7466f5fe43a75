"""Multiparty set intersection over Steiner tree packings — Theorem 3.11.

Every player ``u in K`` holds an N-bit vector ``x_u``; a designated player
must learn the bitwise AND (equivalently, the intersection of the sets the
vectors indicate).  The protocol packs edge-disjoint Steiner trees of
terminal diameter <= Δ, splits the N slots across the trees and runs a
pipelined convergecast on each tree in parallel, achieving

    O( min_Δ ( N / ST(G, K, Δ) + Δ ) )

rounds at one bit per slot (Theorem 3.11, from Chattopadhyay et al.).
The same machinery, instantiated with a semiring product instead of AND,
is the ⊗-combining step of the FAQ protocol (footnote 24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..network.simulator import SimulationResult, Simulator
from ..network.steiner import SteinerTree, optimize_delta, pack_steiner_trees
from ..network.topology import Topology
from .primitives import (
    Landed,
    Mailbox,
    broadcast_node,
    convergecast_node,
    parallel_subphases,
)
from .schedule import Stream, packing_streams


@dataclass
class SlotPlan:
    """A Steiner tree packing used as parallel aggregation channels.

    Attributes:
        trees: The edge-disjoint Steiner trees, all rooted at the output
            player and sharing one terminal set.
        delta: The diameter bound the packing satisfies.
        parents: Each tree's parent pointers toward the root, derived
            once from ``trees``.
    """

    trees: List[SteinerTree]
    delta: int
    parents: Tuple[Dict[str, Optional[str]], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.parents = tuple(tree.parent_map() for tree in self.trees)

    @property
    def root(self) -> str:
        return self.trees[0].root

    @property
    def terminals(self) -> Tuple[str, ...]:
        return self.trees[0].terminals

    def slice_ranges(self, num_slots: int) -> List[Tuple[int, int]]:
        """Split ``num_slots`` into contiguous per-tree ranges."""
        s = len(self.trees)
        per = math.ceil(num_slots / s) if num_slots else 0
        return [
            (min(num_slots, j * per), min(num_slots, (j + 1) * per))
            for j in range(s)
        ]


def plan_slots(
    topology: Topology,
    players: Sequence[str],
    output_player: str,
    num_slots: int,
    max_diameter: Optional[int] = None,
) -> SlotPlan:
    """Pack Steiner trees rooted at ``output_player`` and slice the slots.

    With ``max_diameter=None`` the Δ of Theorem 3.11 is optimized by
    :func:`repro.network.steiner.optimize_delta`; otherwise the packing is
    computed at the requested Δ (used by the Δ-ablation bench).

    Raises:
        ValueError: if no Steiner tree connects the players at the
            requested diameter.
    """
    terminals = sorted(set(players) | {output_player})
    if max_diameter is None:
        delta, trees, _ = optimize_delta(topology, terminals, max(1, num_slots))
    else:
        trees = pack_steiner_trees(topology, terminals, max_diameter)
        delta = max_diameter
        if not trees:
            raise ValueError(
                f"no Steiner tree of diameter <= {max_diameter} connects "
                f"{terminals}"
            )
    trees = [
        SteinerTree(t.edges, output_player, tuple(terminals)) for t in trees
    ]
    return SlotPlan(trees=trees, delta=delta)


def star_over_packing(
    ctx,
    mail: Mailbox,
    scatter: Sequence[Stream],
    combine: Sequence[Stream],
    slices: Optional[Sequence[Sequence[Any]]],
    score: Optional[Callable[[Sequence[Any]], List[Any]]],
    bits_per_item: int,
    combine_op: Callable[[Any, Any], Any],
    identity: Any,
    bits_per_slot: int,
):
    """One node's role in a pipelined star over a packing (generator).

    The root (``slices`` given) broadcasts slice ``i`` down the tree of
    its scatter stream ``scatter[i]`` (the trees are edge-disjoint, so
    the broadcasts run fully in parallel — this is what buys the
    Example 2.3 clique speedup, N/ST(G,K,Δ) + Δ instead of N), and the
    ⊗-convergecast of stream ``combine[i]`` goes back up the same tree
    at once: slot ``j`` leaves a node once its tuple has landed there
    (and every child's slot ``j`` has), scored by ``score`` (identity
    when None).  The two phases use opposite directions of
    edge-disjoint trees, so they never contend for a link.

    Returns:
        ``(parts, combined)``: one item list per tree (terminals belong
        to every tree, so theirs concatenate to the root's items), and
        the combined slot list at the packing root (None elsewhere).
    """
    landed = [Landed() for _stream in scatter]
    results = yield from parallel_subphases([
        broadcast_node(
            ctx, mail, stream.parent, stream.children,
            None if slices is None else slices[i], bits_per_item, stream.tag,
            landed[i],
        )
        for i, stream in enumerate(scatter)
    ] + [
        convergecast_node(
            ctx, mail, stream.parent, stream.children, None, None,
            combine_op, identity, bits_per_slot, stream.tag,
            landed[i], landed, score,
        )
        for i, stream in enumerate(combine)
    ])
    parts = results[:len(scatter)]
    if slices is None:
        return parts, None
    return parts, [value for part in results[len(scatter):] for value in part]


def combine_over_packing(
    ctx,
    mail: Mailbox,
    streams: Sequence[Stream],
    slots: Sequence[Optional[Sequence[Any]]],
    counts: Sequence[int],
    combine: Callable[[Any, Any], Any],
    identity: Any,
    bits_per_slot: int,
):
    """One node's role in the packed convergecast (generator).

    The node runs one convergecast per stream, in parallel (the trees
    are edge-disjoint, so streams never contend).

    Args:
        streams: This node's convergecast streams, one per tree.
        slots: This node's contribution per stream (None = identity).
        counts: Slot count per stream (learned from the scatter headers,
            so empty relations and uneven splits need no global
            agreement).

    Returns:
        The full combined slot list at the packing root; None elsewhere.
    """
    results = yield from parallel_subphases([
        convergecast_node(
            ctx, mail, stream.parent, stream.children, count, mine,
            combine, identity, bits_per_slot, stream.tag,
        )
        for stream, mine, count in zip(streams, slots, counts)
    ])
    if streams and streams[0].parent is None:
        return [value for part in results for value in part]
    return None


def run_set_intersection(
    topology: Topology,
    vectors: Dict[str, Sequence[bool]],
    output_player: str,
    max_diameter: Optional[int] = None,
    bits_per_slot: int = 1,
    max_rounds: int = 1_000_000,
) -> Tuple[List[bool], SimulationResult]:
    """Run the full Theorem 3.11 protocol on the simulator.

    Args:
        vectors: ``player -> N-bit vector``; all vectors must share one
            length N.  Players of G absent from the dict participate as
            Steiner relay nodes when needed.
        output_player: Learns the AND of all vectors.
        max_diameter: Fix Δ (None = optimize).
        bits_per_slot: Bits charged per transmitted slot (1 for Boolean).

    Returns:
        ``(intersection_vector, simulation_result)``.

    Raises:
        ValueError: on inconsistent vector lengths.
    """
    lengths = {len(v) for v in vectors.values()}
    if len(lengths) > 1:
        raise ValueError(f"vectors have inconsistent lengths: {lengths}")
    num_slots = lengths.pop() if lengths else 0
    plan = plan_slots(
        topology, list(vectors), output_player, num_slots, max_diameter
    )
    participants = set()
    for tree in plan.trees:
        participants |= tree.nodes
    participants |= set(vectors) | {output_player}

    ranges = plan.slice_ranges(num_slots)
    streams = packing_streams("si", plan.parents)

    def make_proc(node: str):
        my = vectors.get(node)
        mine = streams.get(node, ())
        slots, counts = [], []
        for j, _stream in mine:
            start, stop = ranges[j]
            slots.append(None if my is None else list(my[start:stop]))
            counts.append(stop - start)

        def proc(ctx):
            return (yield from combine_over_packing(
                ctx, Mailbox(), [stream for _j, stream in mine], slots,
                counts, lambda a, b: a and b, True, bits_per_slot,
            ))

        return proc

    processes = {node: make_proc(node) for node in participants}
    sim = Simulator(topology, capacity_bits=max(1, bits_per_slot), max_rounds=max_rounds)
    result = sim.run(processes)
    answer = result.output_of(output_player)
    if answer is None:
        answer = []
    return list(answer), result
