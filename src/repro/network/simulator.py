"""Synchronous round-based network simulator — Model 2.1.

The model: a synchronous network ``G`` where, in each round, at most ``B``
bits (the paper's ``O(r * log2 D)``) traverse each edge *per direction*;
messages sent in round ``t`` are readable in round ``t + 1``; internal
computation is free; all nodes know ``H``, ``G`` and the protocol.

Protocols are written as one generator per node: the node reads
``ctx.inbox``, calls ``ctx.send(...)`` any number of times (subject to the
per-edge capacity) and ``yield``s to end its round.  The simulator runs all
generators in lockstep, enforces capacities, delivers messages, counts
rounds and accounts every bit.

A run records what the count plane predicts and nothing else: rounds,
total bits, bits per directed link and the busiest link-round, plus the
players' outputs (:class:`SimulationResult`).  A compiled run,
:func:`repro.protocols.compiler.run_compiled`, returns the same record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple,
)

from ..obs.trace import Tracer, normalize as _normalize_tracer
from .topology import Topology


class CapacityExceeded(RuntimeError):
    """A node tried to push more than ``B`` bits over an edge in one round."""


class SimulationError(RuntimeError):
    """The simulation violated an invariant (deadlock, round cap, ...).

    Attributes:
        blocked: ``node -> sorted tags of the node's in-flight traffic``
            for every node that was still live when the simulation gave
            up — the tags say which protocol phase was still streaming
            toward each node.  An empty list means no traffic was in
            flight for the node in the final round; messages delivered
            in earlier rounds (and possibly buffered unread inside the
            protocol's own mailbox) are not visible to the simulator.
    """

    def __init__(self, message: str, blocked: Optional[Dict[str, List[str]]] = None) -> None:
        super().__init__(message)
        self.blocked: Dict[str, List[str]] = blocked or {}


def _format_blocked(blocked: Dict[str, List[str]]) -> str:
    """Render the blocked-node map for a :class:`SimulationError`."""
    if not blocked:
        return "no live nodes"
    parts = []
    for node in sorted(blocked):
        tags = blocked[node]
        parts.append(
            f"{node}[{', '.join(tags) if tags else 'no in-flight traffic'}]"
        )
    return "; ".join(parts)


class Message:
    """One message in flight (a plain slotted record: one is made per
    frame, so it is built as cheaply as it can be).

    Attributes:
        src: Sending node.
        dst: Receiving node (a neighbor of ``src``).
        bits: Size charged against the edge capacity (>= 1).
        payload: Arbitrary Python payload (the simulator never inspects it;
            ``bits`` is the ground truth for accounting).
        tag: Protocol-defined routing label (e.g. which Steiner tree or
            which stream a word belongs to).
    """

    __slots__ = ("src", "dst", "bits", "payload", "tag")

    def __init__(
        self, src: str, dst: str, bits: int, payload: Any, tag: str = ""
    ) -> None:
        self.src = src
        self.dst = dst
        self.bits = bits
        self.payload = payload
        self.tag = tag

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, bits={self.bits!r}, "
            f"payload={self.payload!r}, tag={self.tag!r})"
        )


class NodeContext:
    """Per-node API handed to protocol generators.

    Attributes:
        node: This node's name.
        topology: The shared topology (read-only by convention).
        capacity: Per-edge per-direction bits per round (``B``).
        inbox: Messages delivered this round (sent in the previous round).
        round: The current 1-based round number.
    """

    def __init__(self, node: str, topology: Topology, capacity: int) -> None:
        self.node = node
        self.topology = topology
        #: This node's neighbours in G (none for a node G does not have).
        self._neighbors = topology.adjacency.get(node, {})
        self.capacity = capacity
        self.inbox: Sequence[Message] = ()
        self.round = 0
        self._outbox: List[Message] = []
        self._sent_bits_this_round: Dict[str, int] = {}

    def send(self, dst: str, bits: int, payload: Any = None, tag: str = "") -> None:
        """Queue a message to a neighbor for delivery next round.

        Raises:
            ValueError: if ``dst`` is not a neighbor or ``bits < 1``.
            CapacityExceeded: if the edge's per-round budget is exhausted.
        """
        if bits < 1:
            raise ValueError(f"messages must carry at least 1 bit, got {bits}")
        if dst not in self._neighbors:
            raise ValueError(f"{self.node} -> {dst}: not an edge of G")
        used = self._sent_bits_this_round.get(dst, 0)
        if used + bits > self.capacity:
            raise CapacityExceeded(
                f"round {self.round}: {self.node}->{dst} would carry "
                f"{used + bits} bits > capacity {self.capacity}"
            )
        self._sent_bits_this_round[dst] = used + bits
        self._outbox.append(Message(self.node, dst, bits, payload, tag))

    def remaining_capacity(self, dst: str) -> int:
        """Bits still sendable to ``dst`` this round."""
        return self.capacity - self._sent_bits_this_round.get(dst, 0)

    def messages(self, tag: Optional[str] = None, src: Optional[str] = None) -> List[Message]:
        """Filter this round's inbox by tag and/or sender."""
        out = self.inbox
        if tag is not None:
            out = [m for m in out if m.tag == tag]
        if src is not None:
            out = [m for m in out if m.src == src]
        return list(out)

    # -- internal hooks -------------------------------------------------
    def _begin_round(self, round_no: int, inbox: Sequence[Message]) -> None:
        # The outbox is empty: the engine collected it after the last step.
        self.round = round_no
        self.inbox = inbox
        if self._sent_bits_this_round:
            self._sent_bits_this_round = {}

    def _collect(self) -> List[Message]:
        out = self._outbox
        self._outbox = []
        return out


ProcessFactory = Callable[[NodeContext], Generator[None, None, Any]]


@dataclass
class SimulationResult:
    """Outcome of one protocol run: the four gated metrics (the fields
    of the count plane's :class:`~repro.costmodel.CostVector`) and the
    players' outputs.

    Attributes:
        rounds: Number of communication rounds used — the largest round
            index in which any message was sent (computation-only trailing
            rounds are free, per Model 2.1).
        total_bits: Total bits carried over all edges in all rounds.
        bits_per_edge: Bits per *directed* edge ``(src, dst)``, in the
            order the links were first charged (an undirected edge is two
            links).
        max_edge_bits_per_round: The busiest link-round of the run: the
            largest number of bits any directed edge carried in a single
            round (at most the capacity ``B``; the ratio is the paper's
            per-round budget utilization).
        outputs: Return value of each node's generator.
    """

    rounds: int
    total_bits: int
    bits_per_edge: Dict[Tuple[str, str], int]
    max_edge_bits_per_round: int
    outputs: Dict[str, Any]

    def output_of(self, node: str) -> Any:
        return self.outputs.get(node)

    def link_utilization(self, capacity_bits: int) -> float:
        """Peak per-round link load as a fraction of the capacity ``B``."""
        if capacity_bits <= 0:
            return 0.0
        return self.max_edge_bits_per_round / capacity_bits


class Simulator:
    """Runs a set of per-node generators over a topology in lockstep.

    Args:
        topology: The communication graph ``G``.
        capacity_bits: Per-edge per-direction bits per round (``B``).
        max_rounds: Hard cap; exceeding it raises :class:`SimulationError`
            (a protocol bug or deadlock).
        tracer: Optional :class:`repro.obs.trace.Tracer`.  Disabled
            tracers (including ``None``) are normalized to ``None``
            up front, so tracing-off costs a single ``is not None``
            check per guard site and not one method call per event.
    """

    def __init__(
        self,
        topology: Topology,
        capacity_bits: int,
        max_rounds: int = 1_000_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if capacity_bits < 1:
            raise ValueError("capacity must be at least 1 bit per round")
        self.topology = topology
        self.capacity_bits = capacity_bits
        self.max_rounds = max_rounds
        self.tracer = _normalize_tracer(tracer)

    def run(self, processes: Dict[str, ProcessFactory]) -> SimulationResult:
        """Execute one protocol.

        Args:
            processes: One generator factory per participating node; nodes
                of ``G`` absent from the dict are passive (they never send;
                for relay roles, include them explicitly).

        Returns:
            A :class:`SimulationResult` with exact round/bit accounting.

        Raises:
            SimulationError: on deadlock (undelivered messages to finished
                nodes are tolerated, but live generators that never finish
                within ``max_rounds`` are not).
        """
        unknown = [n for n in processes if n not in self.topology]
        if unknown:
            raise ValueError(f"processes for nodes not in G: {unknown}")

        contexts = {
            node: NodeContext(node, self.topology, self.capacity_bits)
            for node in processes
        }
        generators: Dict[str, Generator] = {}
        outputs: Dict[str, Any] = {}
        for node, factory in processes.items():
            gen = factory(contexts[node])
            if not hasattr(gen, "send"):
                raise TypeError(
                    f"process for {node!r} must be a generator function"
                )
            generators[node] = gen

        pending: List[Message] = []
        total_bits = 0
        last_send_round = 0
        bits_per_edge: Dict[Tuple[str, str], int] = {}
        max_edge_bits_per_round = 0

        tracer = self.tracer
        if tracer is not None:
            tracer.run_start(
                "generator", self.capacity_bits, list(self.topology.nodes)
            )

        order = sorted(generators)
        round_no = 0
        while True:
            round_no += 1
            if tracer is not None:
                tracer.round_start(round_no)
            if round_no > self.max_rounds:
                blocked = {
                    node: sorted({m.tag for m in pending if m.dst == node})
                    for node in generators
                }
                raise SimulationError(
                    f"exceeded max_rounds={self.max_rounds}; blocked nodes: "
                    f"{_format_blocked(blocked)}",
                    blocked=blocked,
                )
            # Deliver messages sent last round.  Messages to passive or
            # finished nodes are dropped silently — a protocol bug
            # surfaces as a deadlock or wrong output.
            inboxes: Dict[str, List[Message]] = {}
            for msg in pending:
                box = inboxes.get(msg.dst)
                if box is None:
                    inboxes[msg.dst] = [msg]
                else:
                    box.append(msg)
            pending = []

            # Step every live generator once (deterministic order).
            finished: List[str] = []
            round_edge_bits: Dict[Tuple[str, str], int] = {}
            for node in order:
                ctx = contexts[node]
                ctx._begin_round(round_no, inboxes.get(node, ()))
                try:
                    next(generators[node])
                except StopIteration as stop:
                    outputs[node] = stop.value
                    finished.append(node)
                sent = ctx._collect()
                for msg in sent:
                    total_bits += msg.bits
                    link = (msg.src, msg.dst)
                    bits_per_edge[link] = bits_per_edge.get(link, 0) + msg.bits
                    round_edge_bits[link] = (
                        round_edge_bits.get(link, 0) + msg.bits
                    )
                    last_send_round = round_no
                pending.extend(sent)
            if round_edge_bits:
                busiest = max(round_edge_bits.values())
                if busiest > max_edge_bits_per_round:
                    max_edge_bits_per_round = busiest
            if tracer is not None:
                # Coalesce the round's messages into one event per
                # (edge, tag) stream — replay needs edge/round bit
                # totals, not message granularity.
                streams: Dict[Tuple[str, str, str], int] = {}
                for msg in pending:
                    stream = (msg.src, msg.dst, msg.tag)
                    streams[stream] = streams.get(stream, 0) + msg.bits
                for (src, dst, tag), bits in streams.items():
                    tracer.send(round_no, src, dst, bits, tag=tag)
            if finished:
                for node in finished:
                    del generators[node]
                order = [node for node in order if node in generators]

            if not generators and not pending:
                break

        return SimulationResult(
            rounds=last_send_round,
            total_bits=total_bits,
            bits_per_edge=bits_per_edge,
            max_edge_bits_per_round=max_edge_bits_per_round,
            outputs=outputs,
        )


def passive_relay(ctx: NodeContext) -> Generator[None, None, None]:
    """A process that never sends — a placeholder participant."""
    return
    yield  # pragma: no cover - makes this a generator function


def run_protocol(
    topology: Topology,
    processes: Dict[str, ProcessFactory],
    capacity_bits: int,
    max_rounds: int = 1_000_000,
    include_all_nodes: Iterable[str] = (),
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run once.

    Args:
        include_all_nodes: Extra nodes to register as passive relays so
            messages to them are not dropped (rarely needed; routing
            protocols register their own relay processes).
    """
    procs = dict(processes)
    for node in include_all_nodes:
        procs.setdefault(node, passive_relay)
    return Simulator(topology, capacity_bits, max_rounds).run(procs)
