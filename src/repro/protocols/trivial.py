"""The trivial protocol — Lemma 3.1.

Every player routes its input functions, tuple by tuple, to one designated
player, who then answers the query with free internal computation.  The
routing runs store-and-forward over a BFS tree rooted at the sink; under
worst-case assignment its round count matches ``τ_MCF`` up to the
Appendix D.1 ``Θ̃(·)`` equivalence (and matches exactly on lines, where
the bottleneck edge is the sink's).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..network.simulator import SimulationResult, Simulator
from ..network.topology import Topology
from ..semiring import Factor, Semiring
from .primitives import (
    Mailbox,
    chunk_packets,
    route_to_sink_node,
    strip_continuations,
)


def factor_to_packets(
    factor: Factor, edge_name: str, tuple_bits: int, capacity: int
) -> List[Tuple[int, Any]]:
    """Serialize a factor as routable packets.

    Each tuple becomes one ``tuple_bits`` packet tagged with its relation
    name; packets larger than the edge capacity are chunked (all bits are
    accounted; only the head chunk carries the payload).
    """
    payloads = [
        (max(1, tuple_bits), (edge_name, row, value)) for row, value in factor
    ]
    return chunk_packets(payloads, capacity)


def packets_to_factors(
    payloads: Sequence[Any],
    schemas: Dict[str, Tuple[str, ...]],
    semiring: Semiring,
) -> Dict[str, Factor]:
    """Reassemble routed packets into factors keyed by relation name."""
    rows: Dict[str, Dict[Tuple, Any]] = {name: {} for name in schemas}
    for payload in strip_continuations(payloads):
        edge_name, row, value = payload
        rows[edge_name][tuple(row)] = value
    return {
        name: Factor(schemas[name], rows[name], semiring, name)
        for name in schemas
    }


def route_all_to_sink(
    topology: Topology,
    holdings: Dict[str, List[Tuple[int, Any]]],
    sink: str,
    capacity_bits: int,
    max_rounds: int = 1_000_000,
) -> Tuple[List[Any], SimulationResult]:
    """Route arbitrary packets from many players to one sink.

    Args:
        holdings: ``player -> [(bits, payload), ...]``; every node of G
            participates as a relay over the sink-rooted BFS tree.

    Returns:
        ``(collected_payloads_at_sink, simulation_result)``.
    """
    parents = topology.bfs_tree(sink)
    children: Dict[str, List[str]] = {n: [] for n in parents}
    for node, parent in parents.items():
        if parent is not None:
            children[parent].append(node)

    def make_proc(node: str):
        packets = chunk_packets(holdings.get(node, []), capacity_bits)

        def proc(ctx):
            mail = Mailbox()
            result = yield from route_to_sink_node(
                ctx,
                mail,
                parents[node],
                sorted(children[node]),
                packets,
                "route",
            )
            return result

        return proc

    processes = {node: make_proc(node) for node in parents}
    sim = Simulator(topology, capacity_bits, max_rounds)
    result = sim.run(processes)
    collected = result.output_of(sink) or []
    return list(strip_continuations(collected)), result


def run_trivial_protocol(
    topology: Topology,
    factors: Dict[str, Factor],
    assignment: Dict[str, str],
    sink: str,
    tuple_bits: int,
    capacity_bits: int,
    max_rounds: int = 1_000_000,
) -> Tuple[Dict[str, Factor], SimulationResult]:
    """Ship whole relations to ``sink`` (the Lemma 3.1 protocol).

    Args:
        factors: Relation name -> factor.
        assignment: Relation name -> owning player.
        tuple_bits: The per-tuple encoding cost ``O(r log D)``.

    Returns:
        ``(factors reassembled at sink, simulation_result)``.
    """
    holdings: Dict[str, List[Tuple[int, Any]]] = {}
    for name, factor in factors.items():
        owner = assignment[name]
        if owner == sink:
            continue
        holdings.setdefault(owner, []).extend(
            (max(1, tuple_bits), (name, row, value)) for row, value in factor
        )
    payloads, result = route_all_to_sink(
        topology, holdings, sink, capacity_bits, max_rounds
    )
    schemas = {name: f.schema for name, f in factors.items()}
    semiring = next(iter(factors.values())).semiring if factors else None
    received = packets_to_factors(payloads, schemas, semiring)
    # Factors already at the sink are taken verbatim.
    for name, factor in factors.items():
        if assignment[name] == sink:
            received[name] = factor
    return received, result
