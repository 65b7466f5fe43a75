"""Cut simulation — the executable form of the Lemma 4.4 argument.

Lemma 4.4 turns any R-round protocol on ``G`` into a two-party protocol:
Alice simulates the nodes on side ``A`` of a K-separating cut, Bob those
on side ``B``, and per round at most ``MinCut(G,K) * ceil(log2 MinCut)``
bits cross each way (the log term names the crossing edge; Model 2.1's
capacity is per direction, so Alice and Bob may both talk in a round).
Hence, for the bits either direction carries,

    R >= bits-one-way / (MinCut * log MinCut),

and since a transcript is at most twice its busier direction, inequality
(1) of Section 2.2.2, ``R >= two-party-complexity / (MinCut * log
MinCut)``, holds up to that factor 2, a constant its ``O``-bounds absorb.

This module extracts the two-party *transcript cost* of an actual
simulation run and checks the accounting identity the lemma relies on —
making the reduction's communication bookkeeping machine-verifiable, not
just the instance construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Set, Tuple

from ..network.mincut import mincut, mincut_partition
from ..network.simulator import SimulationResult
from ..network.topology import Topology


@dataclass
class CutTranscript:
    """The two-party view of one protocol run across a cut.

    Attributes:
        side_a / side_b: The simulated node partition.
        crossing_edges: Edges of ``G`` across the cut.
        bits_each_way: The bits the run sent across the cut, ``(A -> B,
            B -> A)``.
        rounds: The run's round count.
        cut_size: Number of crossing edges.
    """

    side_a: Set[str]
    side_b: Set[str]
    crossing_edges: Tuple[Tuple[str, str], ...]
    bits_each_way: Tuple[int, int]
    rounds: int
    cut_size: int

    @property
    def bits_crossing(self) -> int:
        """Total bits across the cut (Alice<->Bob communication in the
        simulated protocol)."""
        return sum(self.bits_each_way)

    def busiest_way(self) -> int:
        """The crossing bits of the direction that carried more."""
        return max(self.bits_each_way)

    def two_party_bits_with_addressing(self) -> float:
        """Bits of the induced two-party protocol, with the
        ``ceil(log2 cut)`` per-bit edge-addressing overhead of Lemma 4.4."""
        address = max(1, math.ceil(math.log2(max(2, self.cut_size))))
        return self.bits_crossing * address

    def round_lower_bound(self, two_party_bits: float, capacity_bits: int) -> float:
        """``R >= bits / (cut * capacity * log cut)``: the bound any
        two-party complexity ``two_party_bits`` implies for this cut."""
        address = max(1.0, math.ceil(math.log2(max(2, self.cut_size))))
        return two_party_bits / (self.cut_size * capacity_bits * address)


def cut_transcript(
    topology: Topology,
    players: Sequence[str],
    result: SimulationResult,
) -> CutTranscript:
    """Extract the two-party transcript of a run across a min K-cut.

    Args:
        topology: The communication graph the run used.
        players: The terminal set ``K`` the cut must separate.
        result: The finished simulation; both directions of each
            crossing edge are read from its ``bits_per_edge``.
    """
    side_a, side_b, crossing = mincut_partition(topology, players)
    side_a = set(side_a)
    links = result.bits_per_edge
    a_to_b = b_to_a = 0
    for u, v in crossing:
        if u not in side_a:
            u, v = v, u
        a_to_b += links.get((u, v), 0)
        b_to_a += links.get((v, u), 0)
    return CutTranscript(
        side_a=side_a,
        side_b=set(side_b),
        crossing_edges=tuple(crossing),
        bits_each_way=(a_to_b, b_to_a),
        rounds=result.rounds,
        cut_size=len(crossing),
    )


def predicted_crossing_bits(
    crossing_edges: Sequence[Tuple[str, str]],
    bits_per_edge: Mapping[Tuple[str, str], int],
) -> int:
    """Crossing bits implied by a *directed* per-link bit map.

    Folds a predicted per-directed-link map (e.g.
    ``repro.costmodel.CostPrediction.bits_per_edge``) over an undirected
    crossing-edge set, summing both directions of each cut edge.  This
    must equal the executed run's
    :attr:`CutTranscript.bits_crossing` exactly — linking the symbolic
    cost plane to the Lemma 4.4 accounting oracle: the model predicts
    not just the totals but the exact two-party transcript cost of the
    induced cut protocol.
    """
    crossing = {tuple(sorted(edge)) for edge in crossing_edges}
    return sum(
        bits
        for (src, dst), bits in bits_per_edge.items()
        if tuple(sorted((src, dst))) in crossing
    )


class CutAccountingError(AssertionError):
    """The Lemma 4.4 accounting identity failed — a simulator/engine bug.

    An :class:`AssertionError` subclass for backward compatibility, but
    raised explicitly so the check survives ``python -O`` (a bare
    ``assert`` would be compiled out and silently disable the lab's
    bound-certification oracle).
    """


def verify_cut_accounting(
    transcript: CutTranscript, capacity_bits: int
) -> None:
    """Check the Lemma 4.4 bookkeeping on a real run.

    Per round at most ``cut_size * capacity`` bits cross the cut in each
    direction, so neither direction's crossing bits can exceed
    ``rounds * cut * capacity``.

    Raises:
        CutAccountingError: if the run violated the accounting identity
            (which would indicate a simulator bug).
    """
    budget = transcript.rounds * transcript.cut_size * capacity_bits
    if transcript.busiest_way() > budget:
        raise CutAccountingError(
            f"{transcript.busiest_way()} bits crossed a cut of size "
            f"{transcript.cut_size} one way in {transcript.rounds} rounds "
            f"at {capacity_bits} bits/round"
        )


def implied_round_lower_bound(
    topology: Topology,
    players: Sequence[str],
    two_party_bits: float,
    capacity_bits: int,
) -> float:
    """The round lower bound a two-party bit bound implies on ``G``.

    This is inequality (1) of Section 2.2.2 instantiated with actual
    graph quantities: any protocol needs at least
    ``bits / (MinCut * capacity * ceil(log MinCut))`` rounds, where
    ``bits`` must cross the cut one way (the capacity is per direction;
    a bound on the whole transcript gives half as many rounds).
    """
    cut = mincut(topology, players)
    address = max(1.0, math.ceil(math.log2(max(2, cut))))
    return two_party_bits / (cut * capacity_bits * address)
