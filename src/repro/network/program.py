"""Compiled round programs — the block-granular protocol engine.

The generator engine (:meth:`repro.network.simulator.Simulator.run`) steps
one Python generator per node per round and ships every frame as its own
:class:`~repro.network.simulator.Message` carrying the tuples it
completes.  This module is the *compiled* alternative: the control plane
expresses a protocol as one :class:`NodeProgram` per node — a static
schedule of typed ops (:class:`BroadcastOp`, :class:`ConvergecastOp`,
:class:`RouteOp`, :class:`ComputeStep`) with precompiled trees, tags and
roles — and the data plane moves :class:`BlockMessage` descriptors that
carry only a frame's bit count, with payload rows living in shared
columnar :class:`~repro.semiring.columnar.WireBlock` buffers (capacity
enforcement is integer arithmetic, never per-tuple work).

Streams frame bits, not items: each round a stream puts ``min(bits
available, room on the edge)`` bits on its link, so an item may straddle
rounds and the receiver takes it when its last bit lands.  A broadcast's
count header is its first ``HEADER_BITS`` bits; a route's queue is one
bit count, and its EOS follows in the round the queue empties if there
is room (``docs/protocols.md`` has the wire format).

The engine is **accounting-exact** with respect to the generator engine:
each op's per-round decisions replicate the corresponding generator
primitive in :mod:`repro.protocols.primitives`, written independently
(same frames, same slot gate, same EOS handshake), so round counts, total
bits, per-link bits and the busiest link-round come out identical.  On
top of that, :func:`run_program` steps only changing nodes: a node whose
program did not move, that sent the same blocks as the round before and
whose current op bounds how long that replays goes *dormant* — it is not
stepped, its blocks are delivered from a steady-send table and charged
arithmetically when it wakes, at its own horizon or as soon as a node
sending to it changes what it sends it.  When every running node is
dormant the round counter skips to the earliest wake, so thousands of
pipeline rounds cost O(1) Python instead of O(rounds), routed payload
included, and a round costs O(changing nodes).  Which horizons are asked depends on which
nodes repeat, so :meth:`ProgramOp.cycle_horizon` must be side-effect
free.

A round is charged one way, on plain Python ints, like the generator
engine charges its own: the blocks of the nodes that stepped fold into
one ``{(src, dst): bits}`` dict in send order, every link of it is
audited against ``B``
(:class:`~repro.network.simulator.CapacityExceeded`), and the dict is
added to the insertion-ordered ``bits_per_edge``.  A dormant node's
links were charged when it last stepped; waking after ``k`` rounds adds
``k`` times its blocks.  That map, the total bits, the rounds and the
busiest link-round are all a run records besides the outputs.  Nothing
here is an array: this package imports neither ``numpy`` nor
:mod:`repro.kernels` (``tests/test_layering.py``).

Self-timing is preserved exactly: ops are started lazily, a finished op
hands the round over to the next op of the same node (mirroring how a
``yield from`` chain resumes), and early-arriving blocks wait in
per-(tag, src) queues just like the generator engine's ``Mailbox`` — a
waking node appends what its dormant rounds would have queued there, so
overlapping phases (the next star's scatter reaching a node still busy
in this one) are fast-forwarded, not stepped.  An op resolves its input
queues once, when it starts, and drains them in place.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.counters import COUNTERS
from ..obs.trace import Tracer, normalize as _normalize_tracer
from .simulator import (
    CapacityExceeded,
    SimulationError,
    SimulationResult,
    _format_blocked,
)
from .topology import Topology

#: The wire format's two fixed charges, defined here once: the generator
#: primitives and the cost model's timing recurrence import them, while
#: their round-semantics logic stays independent of this module's.
#: Bits charged for a count header (a 32-bit length prefix).
HEADER_BITS = 32
#: Bits charged for an end-of-stream marker.
EOS_BITS = 1

#: "Unbounded" cycle horizon — a group takes a min over its members and
#: the engine caps a horizon at ``max_rounds``, so any op without its own
#: bound returns this.
UNBOUNDED = 10 ** 15


class BlockMessage:
    """One block on the wire: one stream's frame over one edge in one
    round.

    Attributes:
        src/dst: Directed edge the block traverses.
        tag: Stream tag (same namespace as the generator engine).
        kind: ``"bits"`` (a frame of the stream) or ``"eos"`` (end of
            stream).
        bits: Total bits charged against the edge for this block (a node
            waking after ``k`` dormant rounds leaves one block of ``k``
            frames' bits in a buffering mailbox).
        meta: The broadcast count, on the frame holding the header's
            last bit.
    """

    __slots__ = ("src", "dst", "tag", "kind", "bits", "meta", "stream")

    def __init__(self, src, dst, tag, kind, bits, meta=None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.kind = kind
        self.bits = bits
        self.meta = meta
        #: The receiver's queue key, ``(tag, src)`` (a dormant node's
        #: blocks are delivered every round it sleeps).
        self.stream = (tag, src)


class ProgramContext:
    """Per-node API handed to program ops (the block-plane ``NodeContext``).

    Enforces the same per-edge per-direction capacity as the generator
    engine, but at block granularity: a k-item block charges its full
    ``bits`` against the round budget in one call.
    """

    def __init__(self, node: str, topology: Topology, capacity: int) -> None:
        self.node = node
        self.topology = topology
        #: This node's neighbours in G (none for a node G does not have).
        self._neighbors = topology.adjacency.get(node, {})
        self.capacity = capacity
        self.round = 0
        self.queues: Dict[Tuple[str, str], deque] = {}
        #: The run's tracer (or None) — ops with trace-worthy internal
        #: structure (ComputeStep) read it; set by :func:`run_program`.
        self.tracer: Optional[Tracer] = None
        self._sent: Dict[str, int] = {}
        self._outbox: List[BlockMessage] = []

    def room(self, dst: str) -> int:
        """Bits still sendable to ``dst`` this round."""
        return self.capacity - self._sent.get(dst, 0)

    def send_block(
        self, dst: str, tag: str, kind: str, bits: int, meta=None
    ) -> None:
        """Queue one block for delivery next round (capacity-checked)."""
        if bits < 1:
            raise ValueError(f"blocks must carry at least 1 bit, got {bits}")
        if dst not in self._neighbors:
            raise ValueError(f"{self.node} -> {dst}: not an edge of G")
        used = self._sent.get(dst, 0)
        if used + bits > self.capacity:
            raise CapacityExceeded(
                f"round {self.round}: {self.node}->{dst} would carry "
                f"{used + bits} bits > capacity {self.capacity}"
            )
        self._sent[dst] = used + bits
        self._outbox.append(BlockMessage(self.node, dst, tag, kind, bits, meta))

    def inbox(self, stream: Tuple[str, str]) -> deque:
        """The ``(tag, src)`` stream's queue itself, in arrival order and
        made if missing: an op resolves it once, when it starts, and
        drains it in place every round."""
        queue = self.queues.get(stream)
        if queue is None:
            queue = self.queues[stream] = deque()
        return queue

    def pending_tags(self) -> List[str]:
        """Tags with undrained blocks (deadlock diagnostics)."""
        return sorted({tag for (tag, _src), q in self.queues.items() if q})

    # -- engine hooks ---------------------------------------------------
    def _begin_round(self, round_no: int) -> None:
        self.round = round_no
        if self._sent:
            self._sent = {}


class ProgramOp:
    """One schedulable unit of a :class:`NodeProgram`."""

    label = "op"

    def start(self, ctx: ProgramContext) -> None:
        """Called once, in the round the op becomes current."""

    def step(self, ctx: ProgramContext) -> bool:
        """Run one round; return True when the op has completed."""
        raise NotImplementedError

    def cycle_horizon(self) -> int:
        """How many *additional* rounds replay the last one identically.

        Called only after the op's node sent the same blocks two rounds
        running.  Returning 0 declines; any positive k asserts that,
        with the last round's arrivals repeating, this op's next ``k``
        rounds consume and send exactly the same blocks (``meta``
        included) and cross no internal boundary.  The bound must hold
        for this op alone, given only that its own arrivals repeat: the
        node goes dormant on it while its neighbours may not.

        Must be side-effect free: whether an op is asked at all depends
        on which nodes repeat and on the ops before it in a group
        (``tests/test_program.py`` pins this).
        """
        return 0

    def advance(self, k: int) -> None:
        """Apply ``k`` replays of the last round's state deltas."""

    def describe(self) -> str:
        return self.label

    # Ops with a horizon append one record per step to ``self._hist``, a
    # ``deque(maxlen=2)`` made in ``__init__``, and decline unless its two
    # records (their own last two rounds) are equal.


class ComputeStep(ProgramOp):
    """A zero-round local computation (Model 2.1: computation is free).

    Runs its callback in the round it becomes current and completes
    immediately, handing the same round to the next op — exactly like
    straight-line code between ``yield from`` calls in a generator
    protocol.  When ``is_output`` is set, the callback's return value
    becomes the node's program output.
    """

    def __init__(self, fn: Callable[[ProgramContext], Any],
                 label: str = "compute", is_output: bool = False) -> None:
        self.fn = fn
        self.label = label
        self.is_output = is_output
        self.value: Any = None

    def step(self, ctx: ProgramContext) -> bool:
        self.value = self.fn(ctx)
        tracer = ctx.tracer
        if tracer is not None:
            tracer.compute_step(ctx.round, ctx.node, self.label)
        return True


class ParallelOps(ProgramOp):
    """Run member ops in lockstep within one node (``parallel_subphases``).

    Each live member is stepped once per round, in input order, sharing
    the node's per-edge capacity through the common context; the group
    completes when every member has.
    """

    def __init__(self, members: Sequence[ProgramOp], label: str = "parallel") -> None:
        self.members = list(members)
        self.label = label
        self._steps = 0
        #: Members still running, in input order; rebuilt only when one
        #: completes.
        self._live = list(self.members)
        #: The step in which a member last completed (None: none has).
        self._last_finish: Optional[int] = None

    def start(self, ctx: ProgramContext) -> None:
        for member in self.members:
            member.start(ctx)

    def step(self, ctx: ProgramContext) -> bool:
        self._steps += 1
        finished = None
        for member in self._live:
            if member.step(ctx):
                if finished is None:
                    finished = []
                finished.append(member)
        if finished is not None:
            self._live = [m for m in self._live if m not in finished]
            self._last_finish = self._steps
        return not self._live

    def cycle_horizon(self) -> int:
        # A member that completed in the last round put its *final*
        # sends into the node's blocks; replaying them would charge those
        # sends again with no op state behind them.  The member's
        # completion is invisible to the scheduler (the program index
        # does not move), so decline here.
        if self._last_finish == self._steps:
            return 0
        k = UNBOUNDED
        for member in self._live:
            horizon = member.cycle_horizon()
            if horizon < 1:
                return 0
            if horizon < k:
                k = horizon
        return k

    def advance(self, k: int) -> None:
        for member in self._live:
            member.advance(k)

    def describe(self) -> str:
        live = [member.describe() for member in self._live]
        return f"{self.label}({', '.join(live)})"


class BroadcastOp(ProgramOp):
    """One node's role in a pipelined tree broadcast, in bits.

    Mirrors :func:`repro.protocols.primitives.broadcast_node` round for
    round.  The stream is the ``HEADER_BITS`` count header followed by
    ``per_item`` bits per item; each round every child gets one ``"bits"``
    block of as many held bits as its edge has room for (the block that
    completes the header carries the count in ``meta``), so an item may
    straddle rounds and a relay forwards bits the round they land.

    Only bit counts move here; item *content* is a shared
    :class:`~repro.semiring.columnar.WireBlock` the protocol compiler
    exposes to every participant out of band (the simulator is one
    process — receivers still never act on rows before the counts say
    they arrived).
    """

    def __init__(
        self,
        tag: str,
        parent: Optional[str],
        children: Sequence[str],
        per_item: int,
        root_count_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_item = max(1, per_item)
        self.root_count_fn = root_count_fn
        self.count: Optional[int] = None
        #: The stream's length in bits, once the count is known.
        self.total: Optional[int] = None
        #: Bits held (the whole stream at the root), and bits sent per
        #: child in ``children`` order.
        self.received = 0
        self.sent = [0] * len(self.children)
        self.label = f"broadcast:{tag}"
        self._stream = (tag, parent)
        self._inbox: Optional[deque] = None
        self._hist: deque = deque(maxlen=2)

    def _learn(self, count: int) -> None:
        self.count = count
        self.total = HEADER_BITS + count * self.per_item

    def arriving(self) -> int:
        """Bits its last round received (none once the stream is whole)."""
        if self.received == self.total or not self._hist:
            return 0
        return self._hist[-1][0]

    def start(self, ctx: ProgramContext) -> None:
        if self.parent is None:
            self._learn(int(self.root_count_fn()) if self.root_count_fn else 0)
            self.received = self.total
        else:
            self._inbox = ctx.inbox(self._stream)

    def step(self, ctx: ProgramContext) -> bool:
        arrived = 0
        inbox = self._inbox
        if inbox:
            for blk in inbox:
                arrived += blk.bits
                if blk.meta is not None:
                    self._learn(blk.meta)
            inbox.clear()
            self.received += arrived
        received = self.received
        total = self.total
        sent = self.sent
        if not sent:  # a leaf: it only receives
            self._hist.append((arrived, ()))
            return total == received
        sends = []
        for i, child in enumerate(self.children):
            lo = sent[i]
            bits = received - lo
            if bits > 0:
                bits = min(bits, ctx.room(child))
            if bits > 0:
                header = lo < HEADER_BITS <= lo + bits
                ctx.send_block(child, self.tag, "bits", bits,
                               meta=self.count if header else None)
                sent[i] = lo + bits
            else:
                bits = 0
            sends.append(bits)
        self._hist.append((arrived, tuple(sends)))
        return total == received and min(sent) == total

    def cycle_horizon(self) -> int:
        hist = self._hist
        if len(hist) < 2 or hist[0] != hist[1]:
            return 0
        arrived, sends = hist[1]
        if not arrived and not any(sends):
            return UNBOUNDED  # silent until its parent sends
        total = self.total
        if total is None:
            return 0  # streaming the header: the length is not known yet
        received = self.received
        # Stop a round before a child's last bit leaves, before the
        # frame that completes its header (that one carries the count),
        # and while a child's send outruns the arrivals, before its
        # backlog runs out (a send equal to the backlog would stop being
        # room-limited).  A leaf completes in the round its last bit
        # lands, so it stops a round before that; at a relay, the parent
        # that stops sending wakes it.
        k = UNBOUNDED
        if arrived and not sends:
            k = (total - received - 1) // arrived
        for done, bits in zip(self.sent, sends):
            if bits:
                k = min(k, (total - done - 1) // bits)
                if done < HEADER_BITS:
                    k = min(k, (HEADER_BITS - done - 1) // bits)
                if bits > arrived:
                    k = min(k, (received - done) // (bits - arrived))
        return max(0, k)

    def advance(self, k: int) -> None:
        arrived, sends = self._hist[-1]
        self.received += k * arrived
        for i, bits in enumerate(sends):
            self.sent[i] += k * bits


def _released(scatter: BroadcastOp, scatters: Sequence[BroadcastOp]) -> int:
    """The pipelined star's gate: a combine may release the slots whose
    tuples its node's scatter on the same tree holds in full — usable in
    the round they land, since the scatters step first in the star's
    group.  ``scatters`` are all of the node's scatters of the star, so
    the sequential schedule (nothing leaves before every one has
    finished) is this rule with another threshold."""
    if scatter.count is None:
        return 0  # the header comes first: no item is in yet
    return (scatter.received - HEADER_BITS) // scatter.per_item


class ConvergecastOp(ProgramOp):
    """One node's role in a pipelined slot convergecast, in bits.

    Mirrors :func:`repro.protocols.primitives.convergecast_node`: slot
    ``i`` is ready once every child's slot ``i`` has fully landed and
    the gate (:func:`_released`) lets the node's scatter ``gate``
    release it; the ready slots' bits go up in one ``"bits"`` block per
    round, as many as the edge has room for.  The combined
    *values* never ride these blocks: they are a timing-free fold over
    the tree's contributions, computed once by the protocol compiler
    when the root completes (in the exact association order the
    generator engine uses, so even float semirings agree bit for bit).

    It learns ``num_slots`` from its scatter's header.
    """

    def __init__(
        self,
        tag: str,
        parent: Optional[str],
        children: Sequence[str],
        per_slot: int,
        gate: BroadcastOp,
        scatters: Sequence[BroadcastOp],
    ) -> None:
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_slot = max(1, per_slot)
        self.gate = gate
        self.scatters = scatters
        self.num_slots: Optional[int] = None
        #: Slots the gate lets go.
        self.released = 0
        #: Slots every child has fully delivered and the gate released
        #: (capped at num_slots), kept current as bits arrive.
        self.ready = 0
        #: Bits sent to the parent (the root sends none).
        self.sent = 0
        #: Bits received per child, in ``children`` order.
        self.received = [0] * len(self.children)
        self.label = f"convergecast:{tag}"
        self._streams = [(tag, child) for child in self.children]
        self._inboxes: List[deque] = []
        self._no_arrivals = (0,) * len(self.children)
        self._waiting = (self._no_arrivals, 0)
        self._hist: deque = deque(maxlen=2)

    def start(self, ctx: ProgramContext) -> None:
        self._inboxes = [ctx.inbox(stream) for stream in self._streams]

    def step(self, ctx: ProgramContext) -> bool:
        gate = self.gate
        if gate.count is None:
            # Before its scatter's header is in, nothing is released and
            # no child holds a tuple to send a slot for.
            self._hist.append(self._waiting)
            return False
        self.num_slots = num_slots = gate.count
        self.released = ready = _released(gate, self.scatters)
        received = self.received
        arrivals = self._no_arrivals
        if any(self._inboxes):
            counts = []
            for i, inbox in enumerate(self._inboxes):
                got = 0
                if inbox:
                    for blk in inbox:
                        got += blk.bits
                    inbox.clear()
                    received[i] += got
                counts.append(got)
            arrivals = tuple(counts)
        if received:
            ready = min(ready, min(received) // self.per_slot)
        self.ready = ready
        if self.parent is None:
            self._hist.append((arrivals, 0))
            return ready == num_slots
        per_slot = self.per_slot
        moved = ready * per_slot - self.sent
        if moved > 0:
            moved = min(moved, ctx.room(self.parent))
        if moved > 0:
            ctx.send_block(self.parent, self.tag, "bits", moved)
            self.sent += moved
        else:
            moved = 0
        self._hist.append((arrivals, moved))
        return self.sent == num_slots * per_slot

    def _gate_feed(self) -> Tuple[int, int, int]:
        """The gate as ``(have, got, unit)``: it releases ``have //
        unit`` slots and gains ``got`` a round — its scatter's item bits,
        or a constant while a threshold holds them back."""
        gate = self.gate
        have = gate.received - HEADER_BITS
        if self.released < have // gate.per_item:
            return self.released, 0, 1
        return have, gate.arriving(), gate.per_item

    def cycle_horizon(self) -> int:
        hist = self._hist
        if len(hist) < 2 or hist[0] != hist[1]:
            return 0
        arrivals, moved = hist[1]
        if self.gate.count is None:
            return UNBOUNDED  # inert until its scatter's header is in
        feed = self._gate_feed()
        if not moved and not any(arrivals) and not feed[1]:
            return UNBOUNDED  # silent until a child or the gate moves
        per_slot = self.per_slot
        whole = self.num_slots * per_slot
        sent = self.sent
        ready = self.ready
        root = self.parent is None
        k = UNBOUNDED
        if moved:
            k = (whole - sent - 1) // moved
        # Drained: every ready bit is out, so each round moves exactly the
        # slots that became ready.  That repeats only while a child whose
        # bits arrive at the pace they leave (a whole number of slots a
        # round), or a gate releasing whole tuples at that pace, holds
        # the minimum.  Otherwise the round was room-limited and stays so
        # while no child's ready bits, nor the gate's, fall behind.  The
        # root sends nothing, so it replays whatever its children do.
        drained = ready * per_slot == sent
        paced = root or not drained
        for got, have in zip(arrivals, self.received):
            if not got:
                if root or (drained and not moved):
                    paced = paced or have // per_slot == ready
                    continue
            elif root:
                # The root completes in the round the last bit lands:
                # wake before it, whoever sends it.
                k = min(k, (whole - have - 1) // got)
                continue
            else:
                if drained:
                    if got == moved and have // per_slot == ready:
                        paced = True
                    if got >= moved:
                        continue  # ready at least as fast as they leave
            # The bits this child has readied beyond those sent; the slot
            # floor makes that exact only when whole slots arrive, so
            # otherwise take its linear lower envelope.
            if got % per_slot:
                margin = have - (per_slot - 1) - sent
            else:
                margin = have // per_slot * per_slot - sent
            if margin < 0:
                return 0
            if got < moved:
                k = min(k, margin // (moved - got))
        if not root:
            have, got, unit = feed
            if drained and got % unit == 0 and got // unit * per_slot == moved \
                    and have // unit == ready:
                paced = True
            if not (drained and got * per_slot >= moved * unit):
                # The released slots' bits beyond those sent, ``unit``
                # times over where the item floor is irregular.
                if got % unit:
                    margin = (have - (unit - 1)) * per_slot - unit * sent
                    loss = unit * moved - got * per_slot
                else:
                    margin = have // unit * per_slot - sent
                    loss = moved - got // unit * per_slot
                if margin < 0:
                    return 0
                if loss > 0:
                    k = min(k, margin // loss)
        if not paced:
            return 0
        return max(0, k)

    def advance(self, k: int) -> None:
        # ``ready`` waits for the next step: the gate's threshold is the
        # rule's to recompute.
        arrivals, moved = self._hist[-1]
        for i, got in enumerate(arrivals):
            self.received[i] += k * got
        self.sent += k * moved


class RouteOp(ProgramOp):
    """One node's role in store-and-forward routing toward a sink.

    Mirrors :func:`repro.protocols.primitives.route_to_sink_node`: the
    queue is one bit count — this node's own payload, then whatever its
    children send — and each round one ``"bits"`` block takes as much of
    it as the edge has room for; once it is empty and every child has
    signalled, the 1-bit EOS follows in the same round if there is room.
    Packet payloads are routed out of band by the protocol compiler (the
    collected multiset at the sink is timing-independent).  A steady
    relay's queue is linear in the rounds, so its horizon is exact: a
    queue that sends more than arrives lasts ``queue // drain`` more
    rounds, and one that grows or holds lasts until its children change.
    """

    def __init__(
        self,
        tag: str,
        parent: Optional[str],
        children: Sequence[str],
        payload_bits_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.payload_bits_fn = payload_bits_fn
        #: Bits queued for the parent.
        self.queue = 0
        self.eos_pending = set(self.children)
        self.eos_sent = False
        self.label = f"route:{tag}"
        self._streams = [(tag, child) for child in self.children]
        self._inboxes: List[deque] = []
        self._hist: deque = deque(maxlen=2)

    def start(self, ctx: ProgramContext) -> None:
        self._inboxes = [ctx.inbox(stream) for stream in self._streams]
        if self.payload_bits_fn is not None:
            self.queue = int(self.payload_bits_fn())

    def step(self, ctx: ProgramContext) -> bool:
        arrived = 0
        for child, inbox in zip(self.children, self._inboxes):
            if not inbox:
                continue
            for blk in inbox:
                if blk.kind == "eos":
                    self.eos_pending.discard(child)
                else:
                    arrived += blk.bits
            inbox.clear()
        if self.parent is None:
            # Sink: consume everything as it arrives (content is routed
            # out of band; see the compiler's FinalRuntime).
            self._hist.append((arrived, 0))
            return not self.eos_pending
        self.queue += arrived
        sent = min(self.queue, ctx.room(self.parent))
        if sent > 0:
            ctx.send_block(self.parent, self.tag, "bits", sent)
            self.queue -= sent
        else:
            sent = 0
        if (
            not self.queue
            and not self.eos_pending
            and not self.eos_sent
            and ctx.room(self.parent) >= EOS_BITS
        ):
            ctx.send_block(self.parent, self.tag, "eos", EOS_BITS)
            self.eos_sent = True
        self._hist.append((arrived, sent))
        return self.eos_sent

    def cycle_horizon(self) -> int:
        hist = self._hist
        if len(hist) < 2 or hist[0] != hist[1]:
            return 0
        # An EOS only matters once the queue is empty with room left on
        # the edge, and such a round sends the EOS and completes the op.
        arrived, sent = hist[1]
        if self.parent is None or sent <= arrived:
            return UNBOUNDED
        # Draining: each round sends the edge's room while the queue lasts.
        return self.queue // (sent - arrived)

    def advance(self, k: int) -> None:
        if self.parent is not None:
            arrived, sent = self._hist[-1]
            self.queue += k * (arrived - sent)

    def describe(self) -> str:
        waiting = sorted(self.eos_pending)
        return f"{self.label}(awaiting EOS from {waiting})" if waiting else self.label


class NodeProgram:
    """A node's compiled schedule: ops executed in order, self-timed."""

    def __init__(self, node: str, items: Sequence[ProgramOp]) -> None:
        self.node = node
        self.items = list(items)
        self.index = 0
        self.started = False
        self.output: Any = None

    @property
    def done(self) -> bool:
        return self.index >= len(self.items)

    def current(self) -> Optional[ProgramOp]:
        return self.items[self.index] if self.index < len(self.items) else None

    def step_round(self, ctx: ProgramContext) -> bool:
        """Run this node's round; returns True when the program advanced
        its schedule position (progress without any send)."""
        items = self.items
        moved = False
        while self.index < len(items):
            op = items[self.index]
            if not self.started:
                op.start(ctx)
                self.started = True
            if not op.step(ctx):
                return moved
            if isinstance(op, ComputeStep) and op.is_output:
                self.output = op.value
            self.index += 1
            self.started = False
            moved = True
        return moved

    def describe(self) -> str:
        op = self.current()
        return op.describe() if op is not None else "finished"


def _repeats(prev: Sequence[BlockMessage], out: Sequence[BlockMessage]) -> bool:
    """Are two equally long block lists the same sends (``meta``
    included)?  Compared field by field."""
    for a, b in zip(prev, out):
        if (a.bits != b.bits or a.dst != b.dst or a.tag != b.tag
                or a.kind != b.kind or a.meta != b.meta):
            return False
    return True


def _changed_receivers(
    before: Sequence[BlockMessage], after: Sequence[BlockMessage], out: set
) -> None:
    """Add to ``out`` every receiver whose blocks differ between two
    rounds of one node (a block gone, new or changed, ``meta``
    included)."""
    if len(before) == len(after):
        for a, b in zip(before, after):
            if a.dst != b.dst or a.tag != b.tag or a.kind != b.kind:
                break
            if a.bits != b.bits or a.meta != b.meta:
                out.add(b.dst)
        else:
            return
    was = {(blk.dst, blk.tag, blk.kind): (blk.bits, blk.meta) for blk in before}
    for blk in after:
        if was.pop((blk.dst, blk.tag, blk.kind), None) != (blk.bits, blk.meta):
            out.add(blk.dst)
    for dst, _tag, _kind in was:
        out.add(dst)


class _Node:
    """One program's scheduling state in :func:`run_program`."""

    __slots__ = ("name", "prog", "ctx", "last", "before", "wake", "since",
                 "buffered")

    def __init__(self, name: str, prog: NodeProgram, ctx: ProgramContext) -> None:
        self.name = name
        self.prog = prog
        self.ctx = ctx
        #: The blocks of the last round it stepped; while it is dormant,
        #: what it sends every round.
        self.last: Sequence[BlockMessage] = ()
        #: The blocks of the round before that one (kept while changing).
        self.before: Sequence[BlockMessage] = ()
        #: 0 while awake, -1 once finished; while dormant, the round in
        #: which it steps again.
        self.wake = 0
        #: The round it went dormant in (its last stepped round).
        self.since = 0
        #: ``(queue, block)`` per block it received in that round on a
        #: stream still queued after it (buffering for a later op).
        self.buffered: List[Tuple[deque, BlockMessage]] = []


def _settle(
    pool: List[_Node],
    round_no: int,
    max_rounds: int,
    finish_targets: set,
    nodes: Dict[str, _Node],
) -> List[_Node]:
    """Which of ``pool`` — this round's steady nodes (stepped without
    moving, sending what they sent the round before) that no changing
    node sends to — go dormant, each with its wake round, ``since`` and
    buffering streams set.

    A node is a *sender* to another while its blocks of this round or
    the last one go there.  A node settles if its op bounds the replay
    (horizon ``h >= 1``, capped at ``max_rounds``): its arrivals next
    round are what its senders repeated this round, and a sender that
    changes them wakes it the round after that.  A receiver of a node
    that finished last round wakes next round: that node's final blocks
    arrived this round and will not again.
    """
    cap = max_rounds - round_no
    if cap < 1:
        return []
    settled = []
    for nd in pool:
        prog = nd.prog
        horizon = prog.items[prog.index].cycle_horizon()
        if horizon < 1:
            continue
        name = nd.name
        nd.wake = (
            round_no + 1 if name in finish_targets
            else round_no + min(horizon, cap) + 1
        )
        nd.since = round_no
        # A stream still queued after this round is buffering for a later
        # op; what it got this round is what its sender sends every round.
        buffered = []
        for (tag, src), queue in nd.ctx.queues.items():
            if queue:
                for blk in nodes[src].last:
                    if blk.dst == name and blk.tag == tag:
                        buffered.append((queue, blk))
        nd.buffered = buffered
        settled.append(nd)
    return settled


def run_program(
    topology: Topology,
    capacity_bits: int,
    programs: Dict[str, NodeProgram],
    max_rounds: int = 1_000_000,
    fast_forward: bool = True,
    tracer: Optional[Tracer] = None,
) -> SimulationResult:
    """Execute compiled node programs in synchronous lockstep rounds.

    The accounting contract matches :meth:`Simulator.run` exactly: blocks
    sent in round ``t`` are readable in round ``t + 1``; ``rounds`` is
    the last round with any send; ``total_bits``, ``bits_per_edge`` (key
    order included) and ``max_edge_bits_per_round`` equal what the
    generator engine would have charged message by message.

    Only changing nodes step.  A node *settles* (goes dormant) after a
    round in which its program did not move, it sent the same blocks as
    in its previous round, its current op bounds how long that replays
    (``cycle_horizon`` ``h >= 1``), and no node sending to it changed
    what it sends it.  A dormant node is not stepped: its blocks are
    delivered to awake receivers from a steady-send table, and it steps
    again at round ``t0 + h + 1``, the round after a node sending to it
    changes what it sends it, or two rounds after such a node finishes —
    whichever is first.  No horizon relies on a sender to stop it: a
    leaf broadcast and a convergecast root end theirs a round before
    their own last bit lands.  On waking, the ``k`` rounds it slept
    are applied arithmetically: op state (``advance(k)``), ``k`` times
    its blocks' bits, and one ``k``-fold block on each stream that was
    buffering for a later op.  When every running node is dormant, the
    engine skips straight to the earliest wake (``engine.fast_forward``
    counts these skips, ``engine.fast_forward_rounds`` the rounds in
    which no node steps).  A round costs O(changing nodes), not
    O(nodes); the result is identical to stepping every node every round
    (``fast_forward=False`` does, and tests compare the two byte for
    byte).

    With a live ``tracer``, every round boundary, block send (a dormant
    node's steady sends included, in node order), compute step and skip
    is emitted as a typed event; a skip carries the full round's sends,
    so replaying the trace reproduces the accounting exactly
    (:mod:`repro.obs.verify`).

    Raises:
        SimulationError: on deadlock (a round in which no node made any
            progress) or when ``max_rounds`` is exceeded; the error names
            the blocked nodes, their current program step and the tags
            they are waiting on.
    """
    if capacity_bits < 1:
        raise ValueError("capacity must be at least 1 bit per round")
    unknown = [n for n in programs if n not in topology]
    if unknown:
        raise ValueError(f"programs for nodes not in G: {unknown}")

    tracer = _normalize_tracer(tracer)
    nodes = {
        name: _Node(name, programs[name],
                    ProgramContext(name, topology, capacity_bits))
        for name in sorted(programs)
    }
    if tracer is not None:
        tracer.run_start("compiled", capacity_bits, list(topology.nodes))
        for nd in nodes.values():
            nd.ctx.tracer = tracer
    outputs: Dict[str, Any] = {}
    for nd in nodes.values():
        if nd.prog.done:
            outputs[nd.name] = nd.prog.output
            nd.wake = -1
    # Every running node in step order; the awake ones among them; and
    # the contexts deliveries go to (awake running nodes) — each changed
    # only in a round in which some node settles, wakes or finishes.
    live = [nd for nd in nodes.values() if not nd.wake]
    awake = live
    receivers = {nd.name: nd.ctx for nd in live}
    # Dormant nodes: their count, and a heap of ``(wake round, serial,
    # node)`` holding an entry per wake round set (an entry whose round
    # is no longer the node's ``wake`` is stale and skipped).
    dormant = 0
    wakes: List[Tuple[int, int, _Node]] = []
    serial = count()
    # The steady-send table: dormant nodes whose blocks (``_Node.last``)
    # this round's deliveries carry.  A node joins it the round after it
    # settles (that round's deliveries carry its explicit sends) and
    # leaves it when it wakes; ``steady_senders`` counts every dormant
    # node with blocks.
    sending: List[_Node] = []
    registering: List[_Node] = []
    steady_senders = 0
    finish_targets: set = set()

    pending: List[BlockMessage] = []
    sent_before = False
    total_bits = 0
    last_send_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0

    def catch_up(nd: _Node, through: int) -> None:
        """Apply a dormant node's rounds ``since + 1 .. through``."""
        nonlocal total_bits
        k = through - nd.since
        if k < 1:
            return
        nd.prog.current().advance(k)
        for blk in nd.last:
            bits = k * blk.bits
            bits_per_edge[(blk.src, blk.dst)] += bits
            total_bits += bits
        for queue, blk in nd.buffered:
            queue.append(BlockMessage(
                blk.src, blk.dst, blk.tag, blk.kind, k * blk.bits))

    def blocked_map(through: int) -> Dict[str, List[str]]:
        for nd in live:
            if nd.wake:
                catch_up(nd, through)
        return {
            nd.name: [f"step {nd.prog.describe()}"] + nd.ctx.pending_tags()
            for nd in live
        }

    round_no = 0
    while True:
        round_no += 1
        if tracer is not None:
            tracer.round_start(round_no)
        if round_no > max_rounds:
            blocked = blocked_map(round_no - 1)
            raise SimulationError(
                f"exceeded max_rounds={max_rounds}; blocked nodes: "
                f"{_format_blocked(blocked)}",
                blocked=blocked,
            )
        woke = False
        if wakes and wakes[0][0] <= round_no:
            while wakes and wakes[0][0] <= round_no:
                when, _serial, nd = heappop(wakes)
                if nd.wake != when:
                    continue  # stale
                catch_up(nd, round_no - 1)
                nd.wake = 0
                dormant -= 1
                receivers[nd.name] = nd.ctx
                if nd.last:
                    steady_senders -= 1
                woke = True
            if woke:
                awake = [nd for nd in live if not nd.wake]
        for blk in pending:
            # Blocks to passive, finished or dormant nodes are dropped: the
            # first two like the generator engine's message handling, the
            # last because they repeat what its wake-up replays.
            ctx = receivers.get(blk.dst)
            if ctx is not None:
                ctx.inbox(blk.stream).append(blk)
        if sending:
            for nd in sending:
                for blk in nd.last:
                    ctx = receivers.get(blk.dst)
                    if ctx is not None:
                        ctx.inbox(blk.stream).append(blk)
            if woke:
                sending = [nd for nd in sending if nd.wake]
        if registering:
            sending += [nd for nd in registering if nd.wake]
            registering = []

        round_sends: List[BlockMessage] = []
        steady: List[_Node] = []
        changing: List[_Node] = []
        finished: List[_Node] = []
        moved_any = False
        for nd in awake:
            ctx = nd.ctx
            ctx._begin_round(round_no)
            moved = nd.prog.step_round(ctx)
            out = ctx._outbox
            prev = nd.last
            if out:
                round_sends += out
                ctx._outbox = []
                nd.last = out
            elif prev:
                nd.last = ()
            if moved:
                moved_any = True
                if nd.prog.done:
                    finished.append(nd)
            elif fast_forward and len(prev) == len(out) and (
                    not out or _repeats(prev, out)):
                steady.append(nd)
                continue
            nd.before = prev
            changing.append(nd)

        # One round's charge, the same for every round: per-link bits in
        # send order, every link audited against B, then the totals.  A
        # dormant node's links were charged when it last stepped; its
        # repeats are charged when it wakes.
        if round_sends:
            round_bits = 0
            round_link_bits: Dict[Tuple[str, str], int] = {}
            for blk in round_sends:
                link = (blk.src, blk.dst)
                round_link_bits[link] = round_link_bits.get(link, 0) + blk.bits
                round_bits += blk.bits
            busiest = max(round_link_bits.values())
            if busiest > capacity_bits:
                src, dst = max(round_link_bits, key=round_link_bits.get)
                raise CapacityExceeded(
                    f"round {round_no}: {src}->{dst} would carry "
                    f"{busiest} bits > capacity {capacity_bits}"
                )
            for link, bits in round_link_bits.items():
                bits_per_edge[link] = bits_per_edge.get(link, 0) + bits
            total_bits += round_bits
            if busiest > max_edge_bits_per_round:
                max_edge_bits_per_round = busiest
        sent = bool(round_sends) or steady_senders > 0
        if sent:
            last_send_round = round_no
        if tracer is not None:
            for nd in live:
                for blk in nd.last:
                    tracer.send(round_no, blk.src, blk.dst, blk.bits,
                                tag=blk.tag, kind=blk.kind)
        if finished:
            for nd in finished:
                outputs[nd.name] = nd.prog.output
            live = [nd for nd in live if not nd.prog.done]

        if not live and not sent:
            break
        if live and not sent and not sent_before and not finished \
                and not moved_any:
            blocked = blocked_map(round_no)
            raise SimulationError(
                f"deadlock at round {round_no}: no node can make progress; "
                f"blocked nodes: {_format_blocked(blocked)}",
                blocked=blocked,
            )
        pending = round_sends
        sent_before = sent

        settled = ()
        if steady or dormant:
            # The receivers a node that changed now sends something else
            # (or nothing): what they get next round changes.
            touched = set()
            for nd in changing:
                _changed_receivers(nd.before, nd.last, touched)
            if steady:
                pool = [nd for nd in steady if nd.name not in touched] \
                    if touched else steady
                if pool:
                    settled = _settle(pool, round_no, max_rounds,
                                      finish_targets, nodes)
                    dormant += len(settled)
                    for nd in settled:
                        heappush(wakes, (nd.wake, next(serial), nd))
                        del receivers[nd.name]
                        if nd.last:
                            steady_senders += 1
                            registering.append(nd)
            if dormant:
                # A node that stepped without settling may change what its
                # receivers get from the next round on: wake them for it.
                soon = round_no + 1
                for name in touched:
                    nd = nodes.get(name)
                    if nd is not None and nd.wake > soon:
                        nd.wake = soon
                        heappush(wakes, (soon, next(serial), nd))
        if finished:
            finish_targets = set()
            for nd in finished:
                nd.wake = -1
                for blk in nd.last:
                    finish_targets.add(blk.dst)
                nd.last = nd.before = ()
                del receivers[nd.name]
        elif finish_targets:
            finish_targets = set()
        if settled or finished:
            awake = [nd for nd in awake if not nd.wake]

        if not awake and steady_senders:
            # Every running node is dormant and some send: nothing changes
            # before the earliest wake, so skip the rounds in between.
            while wakes[0][2].wake != wakes[0][0]:
                heappop(wakes)  # stale
            target = min(wakes[0][0], max_rounds + 1) - 1
            if target > round_no:
                k = target - round_no
                COUNTERS.increment("engine.fast_forward")
                COUNTERS.increment("engine.fast_forward_rounds", k)
                if tracer is not None:
                    tracer.cycle_fast_forward(
                        start_round=round_no,
                        repeats=k,
                        end_round=target,
                        sends=tuple(
                            (blk.src, blk.dst, blk.tag, blk.kind, blk.bits)
                            for nd in live for blk in nd.last
                        ),
                    )
                round_no = target
                last_send_round = target

    return SimulationResult(
        rounds=last_send_round,
        total_bits=total_bits,
        bits_per_edge=bits_per_edge,
        max_edge_bits_per_round=max_edge_bits_per_round,
        outputs=outputs,
    )
