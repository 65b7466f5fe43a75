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
top of that, :func:`run_program` steps only changing *streams* — the
three :class:`StreamOp` kinds, alone or as members of a
:class:`ParallelOps` group.  A stream that repeated its last round and
whose horizon bounds how long that replays goes *dormant*: it is not
stepped, a running reader takes its steady blocks each round, and its
slept rounds are applied arithmetically when it wakes, at its own
horizon or the round after a stream it reads changes what it sends.  A
node steps only its awake streams and is not stepped at all while all of
them sleep; when no stream is awake the round counter skips to the
earliest wake, so thousands of pipeline rounds cost O(1) Python instead
of O(rounds), routed payload included, and a round costs O(changing
streams).  Which horizons are asked depends on which streams repeat, so
:meth:`ProgramOp.cycle_horizon` must be side-effect free.

A round is charged one way, on plain Python ints, like the generator
engine charges its own: the blocks of the streams that stepped fold into
one ``{(src, dst): bits}`` dict in send order, every link of it is
audited against ``B``
(:class:`~repro.network.simulator.CapacityExceeded`), and the dict is
added to the insertion-ordered ``bits_per_edge``.  A dormant stream's
links were charged when it last stepped; waking after ``k`` rounds adds
``k`` times its blocks.  That map, the total bits, the rounds and the
busiest link-round are all a run records besides the outputs.  Nothing
here is an array: this package imports neither ``numpy`` nor
:mod:`repro.kernels` (``tests/test_layering.py``).

Self-timing is preserved exactly: ops are started lazily, a finished op
hands the round over to the next op of the same node (mirroring how a
``yield from`` chain resumes), and early-arriving blocks wait in
per-(tag, src) queues just like the generator engine's ``Mailbox`` — a
stream that wakes leaves what its slept rounds would have sent to a
reader that has not started as one block there, so overlapping phases
(the next star's scatter reaching a node still busy in this one) are
fast-forwarded, not stepped.  An op resolves its input queues once, when
it starts, and drains them in place; a stream links to the streams it
reads and to its readers then, too, never per round.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from math import gcd
from operator import attrgetter
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

#: "Unbounded" cycle horizon — the engine caps a horizon at
#: ``max_rounds``, so any op without its own bound returns this.
UNBOUNDED = 10 ** 15

#: A stream's ``wake`` before it starts, while awake, once finished, and
#: while a combine waits for its gate's header; while dormant it is the
#: round in which it steps again.
_WAITING, _AWAKE, _DONE, _INERT = -2, 0, -1, -3

#: The record a stream's ``_hist`` starts with: no step appends it.
_UNSTEPPED = (None, None)

#: A running node's place in the step order.
_rank = attrgetter("_rank")


class BlockMessage:
    """One block on the wire: one stream's frame over one edge in one
    round.

    Attributes:
        src/dst: Directed edge the block traverses.
        tag: Stream tag (same namespace as the generator engine).
        kind: ``"bits"`` (a frame of the stream) or ``"eos"`` (end of
            stream).
        bits: Total bits charged against the edge for this block (a
            stream waking after ``k`` dormant rounds leaves one block of
            ``k`` frames' bits for a reader that has not started).
        meta: The broadcast count, on the frame holding the header's
            last bit.
    """

    __slots__ = ("src", "dst", "tag", "kind", "bits", "meta", "stream")

    #: A dormant stream's block, sent every round it sleeps.
    steady = False

    def __init__(self, src, dst, tag, kind, bits, meta=None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.kind = kind
        self.bits = bits
        self.meta = meta
        #: The receiver's queue key, ``(tag, src)``.
        self.stream = (tag, src)


class _SteadyBlock(BlockMessage):
    """A dormant stream's block: charged when the stream wakes, not in
    the rounds it is shown in."""

    __slots__ = ()
    steady = True


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
        #: The run's started streams by ``(node, tag)`` (shared by every
        #: context of a run), and whether they may settle.
        self.streams: Dict[Tuple[str, str], "StreamOp"] = {}
        self.settles = False
        #: The node's awake units: streams, plus a current op that never
        #: sleeps.  A node with none is not stepped.
        self.awake = 0
        #: This round's stepped streams that repeated their last round,
        #: and those whose sends changed or that finished (run-wide
        #: lists under :func:`run_program`).
        self.steady: List["StreamOp"] = []
        self.changed: List["StreamOp"] = []
        #: A traced run's blocks of the node's last stepped round, in
        #: member order (its sleeping streams' steady blocks included).
        self.shown: List[BlockMessage] = []
        #: Its program and place in the step order, under run_program.
        self._program: Optional["NodeProgram"] = None
        self._rank = 0
        self._sent: Dict[str, int] = {}
        self._outbox: List[BlockMessage] = []

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
    def _put(self, dst: str, tag: str, kind: str, bits: int) -> int:
        """Send as much of ``bits`` to ``dst`` as the room allows and
        return what went (a stream op's send: its links were checked
        against G when it started)."""
        used = self._sent.get(dst, 0)
        room = self.capacity - used
        if bits > room:
            bits = room
        if bits < 1:
            return 0
        self._sent[dst] = used + bits
        self._outbox.append(BlockMessage(self.node, dst, tag, kind, bits))
        return bits

    def _begin_round(self, round_no: int) -> None:
        self.round = round_no
        if self._sent:
            self._sent = {}


class ProgramOp:
    """One schedulable unit of a :class:`NodeProgram`.

    Only the three :class:`StreamOp` kinds sleep; any other op is
    stepped every round it is current, and its sends wake no stream.
    """

    label = "op"

    def start(self, ctx: ProgramContext) -> None:
        """Called once, in the round the op becomes current."""

    def step(self, ctx: ProgramContext) -> bool:
        """Run one round; return True when the op has completed."""
        raise NotImplementedError

    def cycle_horizon(self) -> int:
        """How many *additional* rounds replay the last one identically.

        Called only after the stream repeated its last round (its two
        ``_hist`` records are equal).  Returning 0 declines; any
        positive k asserts that, with the last round's arrivals
        repeating, this op's next ``k`` rounds consume and send exactly
        the same blocks (``meta`` included) and cross no internal
        boundary.  The bound must hold for this op alone, given only
        that its own arrivals repeat: it sleeps while the streams
        around it may not.

        Must be side-effect free: whether an op is asked at all depends
        on which streams repeat (``tests/test_program.py`` pins this).
        """
        return 0

    def advance(self, k: int) -> None:
        """Apply ``k`` replays of the last round's state deltas."""

    def describe(self) -> str:
        return self.label


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


class StreamOp(ProgramOp):
    """An op that moves one tagged stream over tree edges: the unit that
    settles, sleeps, wakes and is caught up.

    It reads the same tag from ``sources`` (its parent for a broadcast,
    its children otherwise) and sends to ``dests``.  Each step appends
    one record to ``_hist`` (last two rounds; ``[1]`` is what it sent);
    it *repeats* when the two are equal.  At start it links to the
    started streams it reads (``reads``, with its queue for each) and to
    its started ``readers``.  While dormant, ``since`` is the round it
    settled in, ``out`` its steady block per receiver and ``paid`` the
    last round whose blocks a receiver was handed (:meth:`pay`);
    ``dozing`` counts the streams it reads that sleep; until round
    ``blocked`` it may not settle (a stream it reads changed).
    """

    def __init__(self, tag: str, parent: Optional[str],
                 children: Sequence[str]) -> None:
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self._hist: deque = deque((_UNSTEPPED,), 2)
        # Every field an engine run sets, made here in one order.
        self.wake = _WAITING
        self.since = self.blocked = self.dozing = 0
        self.out: Dict[str, BlockMessage] = {}
        self.paid: Dict[str, int] = {}
        self.ctx: Optional[ProgramContext] = None
        self.reads: List[Tuple["StreamOp", deque]] = []
        self.readers: Dict[str, "StreamOp"] = {}
        #: What a change in what it reads moves: itself, and the
        #: combines it gates if it is a scatter.
        self.watch: Tuple["StreamOp", ...] = (self,)
        self._sources: Sequence[str] = ()
        self._queues: Sequence[deque] = ()

    def _link(self, ctx: ProgramContext, sources: Sequence[str],
              queues: Sequence[deque]) -> None:
        """Register as awake and link to the started streams it reads
        (its first step takes what a sleeping one owes it) and reads
        it."""
        self.ctx = ctx
        self.wake = _AWAKE
        self._sources = sources
        self._queues = queues
        ctx.awake += 1
        node, tag, streams = ctx.node, self.tag, ctx.streams
        streams[(node, tag)] = self
        for src, queue in zip(sources, queues):
            sender = streams.get((src, tag))
            if sender is None or node not in sender.dests:
                continue
            sender.readers[node] = self
            self.reads.append((sender, queue))
            if sender.wake > 0:
                self.dozing += 1
        for dst in self.dests:
            if dst not in ctx._neighbors:
                raise ValueError(f"{node} -> {dst}: not an edge of G")
            reader = streams.get((dst, tag))
            if reader is not None and reader.wake != _DONE \
                    and node in reader._sources:
                self.readers[dst] = reader
                reader.reads.append((self, reader.ctx.inbox((tag, node))))

    def pay(self, dst: str, queue: deque, through: int) -> None:
        """The one way a dormant stream's steady blocks are delivered:
        append to ``queue``, at ``dst``, its blocks of the rounds after
        the last one ``dst`` was handed (or replayed, or got by an
        explicit send) through round ``through``, as one block."""
        blk = self.out.get(dst)
        if blk is not None:
            done = self.paid.get(dst, 0)
            k = through - (done if done > self.since else self.since)
            if k > 0:
                self.paid[dst] = through
                queue.append(blk if k == 1 else BlockMessage(
                    blk.src, dst, blk.tag, blk.kind, k * blk.bits))

    def pull(self, round_no: int) -> None:
        """Take what the sleeping streams it reads sent it up to last
        round."""
        node, last = self.ctx.node, round_no - 1
        for sender, queue in self.reads:
            if sender.wake > 0:
                sender.pay(node, queue, last)

    def rest(self, round_no: int, wake: int) -> None:
        """Go dormant after ``round_no`` until ``wake``, sending what the
        last round sent every round."""
        self.wake = wake
        self.since = round_no
        node, tag = self.ctx.node, self.tag
        self.out = {
            dst: _SteadyBlock(node, dst, tag, "bits", bits)
            for dst, bits in self.sends() if bits
        }

    def sends(self) -> Sequence[Tuple[Optional[str], int]]:
        """``(receiver, bits)`` of its last round."""
        return ((self.parent, self._hist[-1][1]),)


class ParallelOps(ProgramOp):
    """Run stream ops in lockstep within one node (``parallel_subphases``).

    Each awake member is stepped once per round, in input order, sharing
    the node's per-edge capacity through the common context; dormant
    members are skipped, and the group completes when every member has.
    A stream outside any group runs as a group of one.

    No two members send on one directed link: a star's packing trees are
    edge-disjoint and its combine runs up the tree its scatter runs
    down, so a sleeping member's room on its link is its own.
    :meth:`start` refuses a group that breaks this (``ValueError``).
    """

    def __init__(self, members: Sequence[StreamOp], label: str = "parallel") -> None:
        self.members = list(members)
        self.label = label
        #: Members still running, in input order; rebuilt only when one
        #: completes.
        self._live = list(self.members)

    def start(self, ctx: ProgramContext) -> None:
        if len(self.members) > 1:
            links = set()
            for member in self.members:
                for dst in member.dests:
                    if dst in links:
                        raise ValueError(
                            f"{ctx.node} -> {dst}: two streams of "
                            f"{self.label} share the link")
                    links.add(dst)
        for member in self.members:
            member.start(ctx)

    def step(self, ctx: ProgramContext) -> bool:
        finished = False
        for member in self._live:
            wake = member.wake
            if wake:
                if wake > 0:
                    if ctx.tracer is not None:
                        # Shown in member order; charged when it wakes.
                        ctx._outbox += member.out.values()
                    continue
                if member.gate.count is None:
                    continue  # inert until its gate's header lands
                member.wake = _AWAKE
                ctx.awake += 1
            if member.dozing:
                member.pull(ctx.round)
            if member.step(ctx):
                member.wake = _DONE
                ctx.awake -= 1
                ctx.changed.append(member)
                finished = True
                continue
            # A repeat may settle; other sends reach its readers.
            hist = member._hist
            if hist[0] == hist[1]:
                ctx.steady.append(member)
            elif member.readers and hist[0][1] != hist[1][1]:
                ctx.changed.append(member)
        if finished:
            self._live = [m for m in self._live if m.wake != _DONE]
        return not self._live

    def describe(self) -> str:
        live = [member.describe() for member in self._live]
        return f"{self.label}({', '.join(live)})"


class BroadcastOp(StreamOp):
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
        super().__init__(tag, parent, children)
        self.dests = self.children
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

    def _learn(self, count: int) -> None:
        self.count = count
        self.total = HEADER_BITS + count * self.per_item

    def start(self, ctx: ProgramContext) -> None:
        if self.parent is None:
            self._learn(int(self.root_count_fn()) if self.root_count_fn else 0)
            self.received = self.total
            self._link(ctx, (), ())
        else:
            self._inbox = ctx.inbox(self._stream)
            self._link(ctx, (self.parent,), (self._inbox,))

    def sends(self) -> Sequence[Tuple[Optional[str], int]]:
        return zip(self.children, self._hist[-1][1])

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
                bits = ctx._put(child, self.tag, "bits", bits)
                if lo < HEADER_BITS <= lo + bits:
                    ctx._outbox[-1].meta = self.count
                sent[i] = lo + bits
            else:
                bits = 0
            sends.append(bits)
        self._hist.append((arrived, tuple(sends)))
        return total == received and min(sent) == total

    def cycle_horizon(self) -> int:
        hist = self._hist
        if hist[0] != hist[1]:
            return 0
        arrived, sends = hist[1]
        if not arrived and not any(sends):
            return UNBOUNDED  # silent until its parent sends
        total = self.total
        if total is None:
            return 0  # streaming the header: the length is not known yet
        received = self.received
        # Stop a round before a child's last bit leaves, and before the
        # frame that completes its header (that one carries the count,
        # so the round that sent it does not repeat either); while a
        # child's send outruns the arrivals, stop before its backlog
        # runs out (a send equal to the backlog would stop being
        # room-limited).  A leaf completes in the round its last bit
        # lands, so it stops a round before that; at a relay, the parent
        # that stops sending wakes it.
        k = UNBOUNDED
        if arrived and not sends:
            k = (total - received - 1) // arrived
        for done, bits in zip(self.sent, sends):
            if bits:
                k = min(k, (total - done - 1) // bits)
                if done - bits < HEADER_BITS:
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
    held = scatter.received
    if scatter.wake > 0:  # asleep: its steady arrivals since it settled
        held += (scatter.ctx.round - scatter.since) * scatter._hist[-1][0]
    return (held - HEADER_BITS) // scatter.per_item


def _floor_loss(have: int, got: int, unit: int) -> int:
    """The most that rounding down to a multiple of ``unit`` ever cuts
    from a count that is ``have`` now and gains ``got`` a round: its
    remainder mod ``unit`` visits only the residues congruent to
    ``have`` mod ``gcd(got, unit)``, the largest of which this is
    (today's remainder when ``got`` is whole units)."""
    step = gcd(got, unit)
    return unit - step + have % step


class ConvergecastOp(StreamOp):
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

    It learns ``num_slots`` from its scatter's header; in a run that
    lets streams sleep, it is *inert* — not stepped, not awake, not
    dormant — until that header lands (its group steps the gate first).
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
        super().__init__(tag, parent, children)
        self.dests = () if parent is None else (parent,)
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
        self._no_arrivals = (0,) * len(self.children)

    def start(self, ctx: ProgramContext) -> None:
        self._link(ctx, self.children,
                   [ctx.inbox(stream) for stream in self._streams])
        gate = self.gate
        gate.watch += (self,)
        if ctx.settles and gate.count is None and gate.ctx is ctx:
            self.wake = _INERT
            ctx.awake -= 1

    def step(self, ctx: ProgramContext) -> bool:
        gate = self.gate
        if gate.count is None:
            # Before its scatter's header is in, nothing is released and
            # no child holds a tuple to send a slot for.
            self._hist.append((self._no_arrivals, 0))
            return False
        self.num_slots = num_slots = gate.count
        self.released = ready = _released(gate, self.scatters)
        received = self.received
        arrivals = self._no_arrivals
        if any(self._queues):
            counts = []
            for i, inbox in enumerate(self._queues):
                got = 0
                if inbox:
                    for blk in inbox:
                        got += blk.bits
                    inbox.clear()
                    received[i] += got
                counts.append(got)
            arrivals = tuple(counts)
        per_slot = self.per_slot
        if received:
            landed = min(received) // per_slot
            if landed < ready:
                ready = landed
        self.ready = ready
        if self.parent is None:
            self._hist.append((arrivals, 0))
            return ready == num_slots
        moved = ready * per_slot - self.sent
        if moved > 0:
            moved = ctx._put(self.parent, self.tag, "bits", moved)
            self.sent += moved
        else:
            moved = 0
        self._hist.append((arrivals, moved))
        return self.sent == num_slots * per_slot

    def _gate_feed(self) -> Optional[Tuple[int, int, int]]:
        """The gate as ``(have, got, unit)``: it releases ``have //
        unit`` slots and gains ``got`` a round, its scatter's item bits.
        None while a threshold holds back tuples the scatter holds: the
        threshold reads the node's other scatters (``_released``), and
        may lift in any round one of them steps."""
        gate = self.gate
        have = gate.received
        got = gate._hist[-1][0] or 0
        if gate.wake > 0:  # asleep: its steady arrivals since it settled
            have += (gate.ctx.round - gate.since) * got
        if have == gate.total:
            got = 0  # whole
        have -= HEADER_BITS
        if self.released < have // gate.per_item:
            return None
        return have, got, gate.per_item

    def cycle_horizon(self) -> int:
        hist = self._hist
        if hist[0] != hist[1]:
            return 0
        arrivals, moved = hist[1]
        if self.gate.count is None:
            return UNBOUNDED  # inert until its scatter's header is in
        feed = self._gate_feed()
        if feed is None:
            return 0
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
            # The bits this child has readied beyond those sent, under
            # the slot floor's periodic envelope.
            margin = have - _floor_loss(have, got, per_slot) - sent
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
                # times over, under the item floor's periodic envelope.
                margin = (have - _floor_loss(have, got, unit)) * per_slot \
                    - unit * sent
                loss = unit * moved - got * per_slot
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


class RouteOp(StreamOp):
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
        super().__init__(tag, parent, children)
        self.dests = () if parent is None else (parent,)
        self.payload_bits_fn = payload_bits_fn
        #: Bits queued for the parent.
        self.queue = 0
        self.eos_pending = set(self.children)
        self.eos_sent = False
        self.label = f"route:{tag}"
        self._streams = [(tag, child) for child in self.children]

    def start(self, ctx: ProgramContext) -> None:
        self._link(ctx, self.children,
                   [ctx.inbox(stream) for stream in self._streams])
        if self.payload_bits_fn is not None:
            self.queue = int(self.payload_bits_fn())

    def step(self, ctx: ProgramContext) -> bool:
        arrived = 0
        for child, inbox in zip(self.children, self._queues):
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
        sent = 0
        if self.queue:
            sent = ctx._put(self.parent, self.tag, "bits", self.queue)
            self.queue -= sent
        if not self.queue and not self.eos_pending and not self.eos_sent:
            self.eos_sent = ctx._put(self.parent, self.tag, "eos",
                                     EOS_BITS) == EOS_BITS
        self._hist.append((arrived, sent))
        return self.eos_sent

    def cycle_horizon(self) -> int:
        hist = self._hist
        if hist[0] != hist[1]:
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
        #: What steps: a stream outside any group as a group of one.
        self._ops = [
            ParallelOps([op], op.label) if isinstance(op, StreamOp) else op
            for op in self.items
        ]
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
        ops = self._ops
        moved = False
        while self.index < len(ops):
            op = ops[self.index]
            # A group is awake by its members; any other op always is.
            if not self.started:
                op.start(ctx)
                self.started = True
                if not isinstance(op, ParallelOps):
                    ctx.awake += 1
            if not op.step(ctx):
                return moved
            if not isinstance(op, ParallelOps):
                ctx.awake -= 1
            if isinstance(op, ComputeStep) and op.is_output:
                self.output = op.value
            self.index += 1
            self.started = False
            moved = True
        return moved

    def describe(self) -> str:
        op = self.current()
        return op.describe() if op is not None else "finished"


def _steady_sends(prog: NodeProgram) -> List[BlockMessage]:
    """The blocks of a node none of whose streams is awake, in member
    order: its dormant streams' steady sends."""
    return [blk for member in prog._ops[prog.index]._live if member.wake > 0
            for blk in member.out.values()]


def _settle(steady: List[StreamOp], round_no: int, cap: int) -> List[StreamOp]:
    """Which of ``steady`` — streams that stepped this round and repeated
    their last one — go dormant, each with ``wake``, ``since`` and
    ``out`` set.

    A stream settles alone when it is not ``blocked`` this round (a
    stream it reads changed its sends, or finished last round) and its
    horizon ``h`` is at least 1; it wakes at ``round + min(h, cap) + 1``.
    """
    settled = []
    if cap < 1:
        return settled
    for stream in steady:
        if stream.blocked < round_no:
            horizon = stream.cycle_horizon()
            if horizon > 0:
                stream.rest(round_no, round_no + min(horizon, cap) + 1)
                settled.append(stream)
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

    Only changing streams step.  After a round, a stream *settles*
    (goes dormant) when it repeated its last round, no stream it reads
    changed what it sends this round or finished last round, and its
    ``cycle_horizon`` is ``h >= 1`` (capped at ``max_rounds``); no other
    stream sends on its links (:class:`ParallelOps`).  A stream's
    reads are its same-tag tree neighbours; a combine is also woken by
    what its gate reads, and one whose gate has no header yet is inert
    — not stepped and not dormant — until the header lands.  A dormant
    stream is not stepped: a running reader takes its steady blocks each
    round, and it steps again at round ``t0 + h + 1`` or the round
    after a stream it reads changes its sends — whichever is first.  On waking, the ``k`` rounds it slept
    are applied arithmetically: op state (``advance(k)``), ``k`` times
    its blocks' bits, and one ``k``-fold block to each reader that had
    not started.
    A node steps its awake streams only, and not at all while none is
    awake; when no stream is, the engine skips straight to the earliest
    wake (``engine.fast_forward`` counts these skips,
    ``engine.fast_forward_rounds`` the rounds in which nothing steps).
    A round costs O(changing streams); the result is identical to
    stepping every stream every round (``fast_forward=False`` does, and
    tests compare the two byte for byte).

    With a live ``tracer``, every round boundary, block send (a dormant
    stream's steady sends included, in node and member order), compute
    step and skip is emitted as a typed event; a skip carries the full
    round's sends, so replaying the trace reproduces the accounting
    exactly (:mod:`repro.obs.verify`).

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
    if tracer is not None:
        tracer.run_start("compiled", capacity_bits, list(topology.nodes))
    streams: Dict[Tuple[str, str], StreamOp] = {}
    steady: List[StreamOp] = []
    changed: List[StreamOp] = []
    outputs: Dict[str, Any] = {}
    # The running nodes' contexts in step order; those with an awake
    # unit (all of them before their first round), changed only when one
    # sleeps, wakes or finishes; and the contexts deliveries go to.
    live: List[ProgramContext] = []
    for name in sorted(programs):
        prog = programs[name]
        ctx = ProgramContext(name, topology, capacity_bits)
        ctx.tracer = tracer
        ctx.streams = streams
        ctx.settles = fast_forward
        ctx.steady = steady
        ctx.changed = changed
        ctx._program = prog
        ctx._rank = len(live)
        if prog.done:
            outputs[name] = prog.output
        else:
            live.append(ctx)
    stepping = list(live)
    receivers = {ctx.node: ctx for ctx in live}
    # Dormant streams that send, and the streams by wake round (an entry
    # whose round is no longer the stream's ``wake`` is stale).
    steady_senders = 0
    wakes: Dict[int, List[StreamOp]] = {}

    pending: List[BlockMessage] = []
    sent_before = False
    total_bits = 0
    last_send_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0

    def rouse(stream: StreamOp, through: int) -> None:
        """Wake a dormant stream after round ``through``: apply its slept
        rounds and drop what arrived for them (they replayed it, and the
        sends of every round before ``through`` of the streams it reads
        with it)."""
        nonlocal total_bits, steady_senders
        k = through - stream.since
        if k > 0:
            stream.advance(k)
            for dst, blk in stream.out.items():
                bits = k * blk.bits
                bits_per_edge[(blk.src, dst)] += bits
                total_bits += bits
        stream.wake = _AWAKE
        ctx = stream.ctx
        if not ctx.awake:
            insort(stepping, ctx, key=_rank)
        ctx.awake += 1
        for queue in stream._queues:
            queue.clear()
        node = ctx.node
        for sender, _queue in stream.reads:
            sender.paid[node] = through - 1
        for reader in stream.readers.values():
            reader.dozing -= 1
        if stream.out:
            steady_senders -= 1

    def blocked_map(through: int) -> Dict[str, List[str]]:
        for round_, due in list(wakes.items()):
            for stream in due:
                if stream.wake == round_:
                    rouse(stream, through)
        return {
            ctx.node: [f"step {ctx._program.describe()}"] + ctx.pending_tags()
            for ctx in live
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
        due = wakes.pop(round_no, None)
        if due is not None:
            woke = []
            last = round_no - 1
            for stream in due:
                if stream.wake == round_no:  # else stale, or listed twice
                    rouse(stream, last)
                    woke.append(stream)
            # What they slept through and owe a reader that is not
            # dormant: the awake ones their last slept round, the others
            # (not started, or finished) every one.
            for stream in woke:
                for dst, blk in stream.out.items():
                    reader = stream.readers.get(dst)
                    ctx = receivers.get(dst)
                    if ctx is not None and (reader is None or reader.wake <= 0):
                        stream.pay(dst, ctx.inbox(blk.stream), last)
        for blk in pending:
            # Blocks to passive or finished nodes are dropped, like the
            # generator engine's message handling; a dormant reader's
            # are dropped when it wakes (its catch-up replays them).
            ctx = receivers.get(blk.dst)
            if ctx is not None:
                queue = ctx.queues.get(blk.stream)
                if queue is None:
                    queue = ctx.queues[blk.stream] = deque()
                queue.append(blk)

        round_sends: List[BlockMessage] = []
        finished: List[ProgramContext] = []
        resting: List[ProgramContext] = []
        moved_any = False
        for ctx in stepping:
            ctx.round = round_no
            if ctx._sent:
                ctx._sent = {}
            prog = ctx._program
            if prog.step_round(ctx):
                moved_any = True
                if prog.done:
                    finished.append(ctx)
            out = ctx._outbox
            if out:
                ctx._outbox = []
                if tracer is not None:
                    ctx.shown = out
                    out = [blk for blk in out if not blk.steady]
                round_sends += out
            elif tracer is not None:
                ctx.shown = out
            if not ctx.awake:
                resting.append(ctx)

        # One round's charge, the same for every round: per-link bits in
        # send order, every link audited against B, then the totals.  A
        # dormant stream's links were charged when it last stepped (no
        # other stream sends on them); its repeats are charged when it
        # wakes.
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
            for ctx in live:
                shown = ctx.shown if ctx.round == round_no \
                    else _steady_sends(ctx._program)
                for blk in shown:
                    tracer.send(round_no, blk.src, blk.dst, blk.bits,
                                tag=blk.tag, kind=blk.kind)
        if finished:
            for ctx in finished:
                outputs[ctx.node] = ctx._program.output
                del receivers[ctx.node]
                live.remove(ctx)

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

        if changed:
            # What a stream sends next round differs from this round's:
            # its readers, and the combines their scatter gates, may not
            # settle now (after a finish, not next round either: its
            # final blocks arrive once), and dormant ones wake next round.
            soon = round_no + 1
            for stream in changed:
                until = soon if stream.wake == _DONE else round_no
                for reader in stream.readers.values():
                    for watcher in reader.watch:
                        if watcher.blocked < until:
                            watcher.blocked = until
                        if watcher.wake > soon:
                            watcher.wake = soon
                            wakes.setdefault(soon, []).append(watcher)
            changed.clear()
        if steady:
            if fast_forward:
                for stream in _settle(steady, round_no, max_rounds - round_no):
                    ctx = stream.ctx
                    ctx.awake -= 1
                    if not ctx.awake:
                        resting.append(ctx)
                    for reader in stream.readers.values():
                        reader.dozing += 1
                    if stream.out:
                        steady_senders += 1
                    wakes.setdefault(stream.wake, []).append(stream)
            steady.clear()
        for ctx in resting:
            stepping.remove(ctx)

        if not stepping and steady_senders:
            # No stream is awake and some send: nothing changes before
            # the earliest wake, so skip the rounds in between.
            first = min(wakes)
            while all(stream.wake != first for stream in wakes[first]):
                del wakes[first]  # stale
                first = min(wakes)
            target = min(first, max_rounds + 1) - 1
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
                            for ctx in live
                            for blk in _steady_sends(ctx._program)
                        ),
                    )
                round_no = target
                last_send_round = target

    # Streams link both ways (and to themselves, as watch): undo it, so
    # the programs go as soon as their caller drops them.
    for stream in streams.values():
        stream.reads = stream.readers = stream.watch = None
        stream.ctx = None
    streams.clear()
    return SimulationResult(
        rounds=last_send_round,
        total_bits=total_bits,
        bits_per_edge=bits_per_edge,
        max_edge_bits_per_round=max_edge_bits_per_round,
        outputs=outputs,
    )
