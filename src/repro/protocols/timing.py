"""The count plane: the timing recurrence ρ, and the clock of compiled runs.

The closed forms in :mod:`repro.costmodel.formulas` price *how many
bits* cross each link (structural, timing-free).  *When* they cross —
the round count and the busiest link-round — is decided by the
protocol's self-timed pipelining.  This module evaluates that
recurrence exactly on a :class:`CostSkeleton`, tracking only integer
counts — no tuples, no semiring values, no simulator.

It is one of the repository's two round clocks.  The generator engine
(:mod:`repro.protocols.primitives` on the
:class:`~repro.network.simulator.Simulator`) ships real tuples and is
the independent one: this module reimplements its per-round decisions
(bit framing — each round a stream puts ``min(bits available, room)``
bits on its link, so an item may straddle rounds — the convergecast's
min-over-children slot gate, the routing queue as one bit count and its
EOS handshake, same-round op chaining, round-``t`` blocks delivered at
``t+1``) and shares none of its code, so the lab's equality gate over
the fuzzed plane catches a drift in either.  This module is the other
clock: ``engine="compiled"`` does the protocol's data work once, with
no round loop (:mod:`repro.protocols.compiler`), and takes its rounds,
bits and per-link load from here, as pricing does
(:func:`repro.costmodel.predict_costs`).  Both read one run per
skeleton per process (:func:`shared_timing`); a compiled run with a
live tracer steps that run itself, shows it and shares it.

Streaming costs O(changing streams), not O(rounds): a stream that sends
the same bits every round while its inputs repeat goes *dormant*, and
its slept rounds are applied arithmetically when it wakes (see
:func:`evaluate_timing`), written against this module's own integer
state — each stream's per-round delta and the *margins* that keep its
``min(...)`` guards from flipping.

What each node runs, in what order and on which links, is not round
logic: it is the plan's schedule
(:func:`~repro.protocols.schedule.build_schedule`, applied to the
skeleton's own parent maps), the one thing this module shares with the
generator engine beyond the two wire constants.

A stepped round is kept cheap, too: an op takes its input queues when
it starts (:meth:`_Ctx.inbox`) and drains them in place; a parallel
group walks a list of what is still running, rebuilt only when
something finishes; and the round loop steps only the nodes with an
awake stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.memo import LRUMemo
from ..obs.counters import COUNTERS
from ..obs.trace import Tracer
from .schedule import EOS_BITS, HEADER_BITS, Schedule, StarShape, build_schedule


@dataclass(frozen=True)
class StarSkeleton:
    """One star phase's cost-relevant shape.

    Attributes:
        star_id: Bottom-up star index (the message-tag namespace).
        center_edge: Relation broadcast from the center.
        trees: Per packing tree, its parent map (node -> parent, root
            maps to None) in packing order.
        counts: Per packing tree, the number of slots (center tuples) it
            carries — ``k_j`` in the formulas.
    """

    star_id: int
    center_edge: str
    trees: Tuple[Dict[str, Optional[str]], ...]
    counts: Tuple[int, ...]


@dataclass(frozen=True)
class RouteSkeleton:
    """The final trivial-protocol phase's cost-relevant shape.

    Attributes:
        parents: Routing-tree parent pointers, restricted to nodes on
            some origin -> output-player path (the sink maps to None).
        payload_counts: Per participant, how many (relation, row, value)
            items it *originates* (zero for pure relays and the sink).
    """

    parents: Dict[str, Optional[str]]
    payload_counts: Dict[str, int]


@dataclass(frozen=True)
class CostSkeleton:
    """Everything the cost of one scenario depends on."""

    nodes: Tuple[str, ...]
    output_player: str
    capacity: int
    tuple_bits: int
    value_bits: int
    stars: Tuple[StarSkeleton, ...]
    route: RouteSkeleton

    @property
    def item_bits(self) -> int:
        """Bits per routed (tuple, value) item in the final phase."""
        return self.tuple_bits + self.value_bits

    @cached_property
    def schedule(self) -> Schedule:
        """Every node's op order and streams, built from this skeleton's
        own parent maps by the plan's schedule builder."""
        return build_schedule(
            self.nodes,
            [StarShape(star.star_id, star.trees) for star in self.stars],
            self.route.parents,
            self.output_player,
        )

    @cached_property
    def key(self) -> Tuple:
        """The skeleton as a hashable value: equal keys time equally
        (parent maps are sets of pointers, and a zero payload count is
        no count)."""
        return (
            self.nodes, self.output_player, self.capacity, self.tuple_bits,
            self.value_bits,
            tuple(
                (star.star_id, star.center_edge, star.counts,
                 tuple(tuple(sorted(tree.items())) for tree in star.trees))
                for star in self.stars
            ),
            tuple(sorted(self.route.parents.items())),
            tuple(sorted(
                (node, count)
                for node, count in self.route.payload_counts.items() if count
            )),
        )


def plan_skeleton(plan, nodes: Sequence[str],
                  payload_counts: Dict[str, int]) -> CostSkeleton:
    """A compiled plan's skeleton, given each route node's payload count.

    Args:
        plan: The :class:`~repro.protocols.faq_protocol.ProtocolPlan`.
        nodes: All topology nodes (every node runs a — possibly empty —
            program, and step order is the sorted node order).
        payload_counts: Items each node originates in the final phase:
            the compiled run counts its own, pricing replays them
            (:func:`repro.costmodel.extract_skeleton`).
    """
    stars = []
    for star in plan.stars:
        ranges = star.slot_plan.slice_ranges(star.center_rows)
        stars.append(StarSkeleton(
            star_id=star.star_id,
            center_edge=star.center_edge,
            trees=star.slot_plan.parents,
            counts=tuple(stop - start for start, stop in ranges),
        ))
    return CostSkeleton(
        nodes=tuple(sorted(nodes)),
        output_player=plan.output_player,
        capacity=plan.capacity_bits,
        tuple_bits=plan.tuple_bits,
        value_bits=plan.value_bits,
        stars=tuple(stars),
        route=RouteSkeleton(
            parents=dict(plan.routing_parents),
            payload_counts=dict(payload_counts),
        ),
    )


class CostModelError(Exception):
    """The count plane could not time a skeleton (a model bug: the lab
    records it as a mismatch, serving rejects the session, and a
    compiled run raises it as a ``SimulationError``)."""


@dataclass(frozen=True)
class CostVector:
    """The four predicted metrics for one scenario."""

    rounds: int
    total_bits: int
    max_edge_bits_per_round: int
    bits_per_edge: Dict[Tuple[str, str], int]


class _Ctx:
    """A node's per-round room and next-round delivery.

    A parallel group sets ``one_off`` in a round in which one of its
    members finished and books its stepped streams in ``steady`` or
    ``changed``; ``awake`` counts the node's awake streams, ``round``
    is the round it steps in.  In a traced run ``tracer`` is set, and
    ``shown`` lists the blocks of the node's last stepped round in op
    and member order, its dormant streams' steady blocks included.
    """

    __slots__ = ("node", "capacity", "queues", "sent", "outbox", "one_off",
                 "steady", "changed", "awake", "round", "tracer", "shown")

    def __init__(self, node: str, capacity: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.node = node
        self.capacity = capacity
        self.queues: Dict[Tuple[str, str], deque] = {}
        self.sent: Dict[str, int] = {}
        self.outbox: List[Tuple[str, str, str, str, int, object]] = []
        self.one_off = False
        self.steady: List["_Stream"] = []
        self.changed: List["_Stream"] = []
        self.awake = 0
        self.round = 0
        self.tracer = tracer
        self.shown: Optional[List[tuple]] = None

    def room(self, dst: str) -> int:
        return self.capacity - self.sent.get(dst, 0)

    def send(self, dst, tag, kind, bits, meta=None) -> None:
        used = self.sent.get(dst, 0)
        if used + bits > self.capacity:
            raise CostModelError(
                f"model overdrew capacity: {self.node}->{dst} "
                f"{used + bits} > {self.capacity}"
            )
        self.sent[dst] = used + bits
        self.outbox.append((self.node, dst, tag, kind, bits, meta))
        if self.shown is not None:
            self.shown.append(self.outbox[-1])

    def inbox(self, stream: Tuple[str, str]) -> deque:
        """The queue of ``stream`` = ``(tag, src)``, made if missing;
        one filled before its op starts is buffering for it."""
        queue = self.queues.get(stream)
        if queue is None:
            queue = self.queues[stream] = deque()
        return queue


#: Horizon of a stream no boundary constrains (silent, or margins
#: growing).
_UNBOUNDED = 1 << 62

#: A stream's ``wake`` before its op starts, while awake, and once it
#: has finished; while dormant it is the round in which it steps again.
_WAITING, _AWAKE, _DONE = -2, 0, -1


class _Op:
    """One blocking op of a node program."""

    def start(self, ctx: _Ctx) -> None:
        pass

    def step(self, ctx: _Ctx) -> bool:
        raise NotImplementedError


class _Stream(_Op):
    """An op whose steady state moves integer bit counters linearly —
    the unit that settles and wakes.

    ``log`` holds the last two stepped rounds' deltas (what each added
    to the counters).  When they agree, every counter and every guard
    of the op's ``min(...)`` decisions moves by that delta each further
    round: :meth:`margins` gives the guards as ``(margin, slope)``
    pairs, each margin to stay at least 0.

    :func:`_wire` sets ``node``, ``ctx``, ``reads`` (the streams whose
    blocks it takes), ``readers`` and ``watchers`` (its readers, and the
    combines gated by a scatter that reads it: what it sends moves
    their gate).  While dormant, ``since`` is the round it settled in,
    ``out`` its bits per receiver a round and ``paid`` the last round
    whose blocks each reader was handed or replayed (:meth:`pay`);
    ``dozing`` counts its dormant reads; until round ``blocked`` a
    stream it reads changed its blocks, so it may not settle.
    """

    #: Whether it reads its tree children (else its parent) and sends
    #: the other way.
    reads_children = True

    def __init__(self) -> None:
        #: Primed with an entry no delta equals.
        self.log: deque = deque((None,), 2)
        self.node: Optional[str] = None
        self.ctx: Optional[_Ctx] = None
        self.reads: List["_Stream"] = []
        self.readers: List["_Stream"] = []
        self.watchers: List["_Stream"] = []
        self.wake = _WAITING
        self.since = self.dozing = self.blocked = 0
        self.out: Dict[str, int] = {}
        self.paid: Dict[str, int] = {}

    def pay(self, reader: "_Stream", through: int) -> None:
        """The one way a dormant stream's steady blocks reach a reader:
        queue, as one entry, its blocks of the rounds after the last one
        ``reader`` was handed or replayed, through round ``through``.  A
        dormant reader replays them and a finished one has read the
        stream to its end: neither gets any."""
        if reader.wake > 0 or reader.wake == _DONE:
            return
        node = reader.node
        bits = self.out.get(node)
        if bits:
            done = self.paid.get(node, 0)
            k = through - (done if done > self.since else self.since)
            if k > 0:
                self.paid[node] = through
                reader.ctx.inbox((self.tag, self.node)).append(
                    ("bits", k * bits, None))

    def blocks(self, delta) -> Dict[str, int]:
        """The bits a round with ``delta`` sends each receiver."""
        raise NotImplementedError

    def steady_blocks(self) -> List[tuple]:
        """A dormant stream's blocks of one round, as sent."""
        return [(self.node, dst, self.tag, "bits", bits, None)
                for dst, bits in self.out.items()]

    def horizon(self) -> int:
        """How many more rounds replay the last one identically, given
        that its arrivals repeat (0 declines).  Leaves the stream as it
        was."""
        log = self.log
        if log[0] != log[1]:
            return 0
        margins = self.margins(log[1])
        if margins is None:
            return 0
        k = _UNBOUNDED
        for margin, slope in margins:
            if margin < 0:
                return 0
            if slope < 0:
                k = min(k, margin // -slope)
        return k

    def margins(self, delta) -> Optional[List[Tuple[int, int]]]:
        """The op's ``(margin, slope)`` guards under ``delta``; None
        declines outright."""
        raise NotImplementedError

    def replay(self, delta, k: int) -> None:
        """Advance the counters by ``k`` times one round's delta."""
        raise NotImplementedError


class _Compute(_Op):
    """Free local computation: completes in place (Model 2.1).  The
    data work itself runs outside the clock
    (:func:`repro.protocols.compiler.execute_plan`); a traced run shows
    the step under ``label``."""

    def __init__(self, label: str) -> None:
        self.label = label

    def step(self, ctx: _Ctx) -> bool:
        if ctx.tracer is not None:
            ctx.tracer.compute_step(ctx.round, ctx.node, self.label)
        return True


class _Parallel(_Op):
    """Members stepped in input order each round, sharing capacity;
    dormant ones are skipped.  Every stream runs in one (a route in its
    own), which books each step in ``ctx.steady`` if it repeated its
    last round — the same delta, so the same bits to each receiver (a
    count in a header frame arrives once, with the round's own blocks)
    — else in ``ctx.changed``."""

    def __init__(self, members: List[_Stream]) -> None:
        self.members = members
        #: Members still running, in input order; rebuilt only in a
        #: round in which one finished.
        self.live = list(members)

    def start(self, ctx: _Ctx) -> None:
        ctx.awake += len(self.members)
        for member in self.members:
            member.wake = _AWAKE
            member.start(ctx)

    def step(self, ctx: _Ctx) -> bool:
        last = ctx.round - 1
        finished = False
        for member in self.live:
            if member.wake:  # dormant
                if ctx.shown is not None:
                    ctx.shown += member.steady_blocks()
                continue
            if member.dozing:
                # What the dormant streams it reads sent up to last round
                # (since it started, in its first step).
                for u in member.reads:
                    if u.wake > 0:
                        u.pay(member, last)
            if member.step(ctx):
                member.wake = _DONE
                ctx.awake -= 1
                ctx.changed.append(member)
                finished = True
                continue
            log = member.log
            if log[0] == log[1]:
                ctx.steady.append(member)
                continue
            ctx.changed.append(member)
        if finished:
            self.live = [m for m in self.live if m.wake != _DONE]
            # The member's final sends are in this round, and no op
            # state stands behind a replay of them.  The program
            # index does not move, so only this flag says so.
            ctx.one_off = True
        return not self.live


class _Broadcast(_Stream):
    """Mirror of ``broadcast_node``, in bits: the stream is the header
    then the items; each round every child gets as many held bits as
    its edge has room for, so an item may straddle rounds.

    Counters: bits held, then bits forwarded per child."""

    def __init__(self, tag, parent, children, per_item, root_count=None):
        super().__init__()
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_item = max(1, per_item)
        #: The stream's length in bits: known at the root, learned from
        #: the frame that completes the header elsewhere.
        self.length: Optional[int] = None
        self.count: Optional[int] = None
        if parent is None:
            self._learn(int(root_count or 0))
        self.held = 0
        self.forwarded = {c: 0 for c in self.children}
        self._inbox: Optional[deque] = None  # the root reads nothing
        # Before it starts a stream moves nothing, so an idle first round
        # repeats its log and may settle at once.
        self.log = deque(((0, (0,) * len(self.children)),), 2)

    def _learn(self, count: int) -> None:
        self.count = count
        self.length = HEADER_BITS + count * self.per_item

    def item_bits(self) -> int:
        """The item bits held by the end of its node's current round
        (while dormant, its steady arrivals since it settled added)."""
        held = self.held
        if self.wake > 0:
            held += (self.ctx.round - self.since) * self.log[1][0]
        return held - HEADER_BITS

    def landed(self) -> int:
        """The items held in full (all of them at the root)."""
        if self.count is None:
            return 0  # the header, then the items: none yet
        return self.item_bits() // self.per_item

    reads_children = False

    def start(self, ctx: _Ctx) -> None:
        if self.parent is None:
            self.held = self.length
        else:
            self._inbox = ctx.inbox((self.tag, self.parent))

    def step(self, ctx: _Ctx) -> bool:
        arrived = 0
        inbox = self._inbox
        if inbox:
            for _kind, bits, meta in inbox:
                arrived += bits
                if meta is not None:
                    self._learn(meta)
            inbox.clear()
            self.held += arrived
        held = self.held
        forwarded = self.forwarded
        sent = []
        for child in self.children:
            done = forwarded[child]
            bits = min(held - done, ctx.room(child))
            if bits > 0:
                count = self.count if done < HEADER_BITS <= done + bits else None
                ctx.send(child, self.tag, "bits", bits, meta=count)
                forwarded[child] = done + bits
            else:
                bits = 0
            sent.append(bits)
        self.log.append((arrived, tuple(sent)))
        length = self.length
        return held == length and all(
            done == length for done in forwarded.values()
        )

    def margins(self, delta):
        arrived, sent = delta
        if self.length is None:
            # Before the header lands only a silent relay is steady.
            return [] if not arrived and not any(sent) else None
        # A round before the stream's last bit leaves for a child (its
        # arrival here is bounded by the sender's own margin) and before
        # its header-completing frame does (that frame carries the
        # count), and each child's backlog stays non-negative (its send
        # room-limited).
        margins = []
        for done, bits in zip(self.forwarded.values(), sent):
            if bits:
                margins.append((self.length - 1 - done, -bits))
                if done < HEADER_BITS:
                    margins.append((HEADER_BITS - 1 - done, -bits))
            margins.append((self.held - done, arrived - bits))
        return margins

    def blocks(self, delta):
        return {c: bits for c, bits in zip(self.children, delta[1]) if bits}

    def replay(self, delta, k: int) -> None:
        arrived, sent = delta
        self.held += k * arrived
        for child, bits in zip(self.children, sent):
            self.forwarded[child] += k * bits


def _released(scatter: "_Broadcast", scatters: List["_Broadcast"]) -> int:
    """The gate of a pipelined star: a node's combine on one packing tree
    may release the slots whose tuples its own scatter on that tree holds
    in full, in the round they land.  ``scatters`` are all of the node's
    scatter streams of the star: the sequential schedule (no slot leaves
    before every one of them has finished) is this rule with that
    threshold, and the one place a test patches to price it."""
    return scatter.landed()


def _floor_loss(have: int, got: int, unit: int) -> int:
    """The most ``unit``-floor ever cuts off a count that is ``have``
    now and grows by ``got`` a round: ``have mod unit`` runs through the
    residues congruent to ``have`` modulo ``gcd(got, unit)``, so
    ``unit * ((have + k * got) // unit) >= have + k * got - loss`` for
    every ``k``, with equality within one period (exact when ``got``
    is whole units: the loss is then today's remainder)."""
    step = gcd(got, unit)
    return unit - step + have % step


class _Convergecast(_Stream):
    """Mirror of ``convergecast_node``, in bits: slot i is ready once
    every child's slot i has fully landed and the node's scatter on the
    same tree releases it (:func:`_released`); ready bits go up as far as
    the edge has room.

    Counters: bits moved up (none at the root), then bits received per
    child.  The gate reads its scatter's counters, current even while
    that scatter sleeps; what moves them is what the scatter's parent
    sends, which the combine watches (``_Stream.watchers``)."""

    def __init__(self, tag, parent, children, per_slot, num_slots, gate,
                 scatters):
        super().__init__()
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_slot = max(1, per_slot)
        self.num_slots = int(num_slots)
        #: The scatter whose tuples release this stream's slots, and its
        #: node's others.
        self.gate = gate
        self.scatters = scatters
        self.released = 0
        self.ready = 0
        self.moved = 0
        self.received = {c: 0 for c in self.children}
        self._inboxes: List[deque] = []
        self._no_arrivals = (0,) * len(self.children)
        self._waiting = (0, self._no_arrivals)
        self.log = deque((self._waiting,), 2)  # idle before it starts
        #: The last round was idle — nothing arrived, nothing was
        #: released and every ready bit was out — so ``log[-1]`` is also
        #: the entry of the next idle round.  A catch-up drops it: it
        #: moves the counters behind it.
        self._idle = False

    def start(self, ctx: _Ctx) -> None:
        self._inboxes = [ctx.inbox((self.tag, c)) for c in self.children]

    def step(self, ctx: _Ctx) -> bool:
        gate = self.gate
        if gate.count is None:
            # No tuple has landed here, so none below either.
            self.log.append(self._waiting)
            return False
        released = _released(gate, self.scatters)
        arrived = any(self._inboxes)
        if arrived:
            arrivals = []
            for child, inbox in zip(self.children, self._inboxes):
                got = 0
                for _kind, bits, _meta in inbox:
                    got += bits
                inbox.clear()
                self.received[child] += got
                arrivals.append(got)
            arrivals = tuple(arrivals)
        elif self._idle and released == self.released:
            self.log.append(self.log[-1])
            return False
        else:
            arrivals = self._no_arrivals
        self.released = ready = released
        if self.children:
            ready = min(ready, min(self.received.values()) // self.per_slot)
        self.ready = ready
        if self.parent is None:
            self._idle = not arrived
            self.log.append((0, arrivals))
            return self.ready == self.num_slots
        ready_bits = self.ready * self.per_slot
        moved = min(ready_bits - self.moved, ctx.room(self.parent))
        if moved > 0:
            ctx.send(self.parent, self.tag, "bits", moved)
            self.moved += moved
        else:
            moved = 0
        self._idle = not moved and not arrived and self.moved == ready_bits
        self.log.append((moved, arrivals))
        return self.moved == self.num_slots * self.per_slot

    def _gate(self) -> Tuple[int, int, int]:
        """The gate as ``(have, got, unit)``: ``have // unit`` slots
        released and ``got`` more units a round — its scatter's item
        bits, or a constant while a threshold holds them back."""
        gate = self.gate
        have = gate.item_bits()
        if self.released < have // gate.per_item:
            return self.released, 0, 1
        got = 0 if gate.wake == _DONE else gate.log[1][0]
        return have, got, gate.per_item

    def margins(self, delta):
        moved, arrivals = delta
        if self.parent is None:
            # The root sends nothing: it replays while its children do,
            # and their own margins keep their last bit out of its sleep.
            return []
        gate = self._gate()
        if not moved and not any(arrivals) and not gate[1]:
            return []
        per_slot = self.per_slot
        margins = []
        if moved:
            margins.append((self.num_slots * per_slot - self.moved - 1, -moved))
        # Drained (every ready bit is out): a round moves exactly the
        # slots that became ready, which repeats only while a child whose
        # bits arrive as fast as they leave (whole slots), or a gate
        # releasing whole tuples as fast as their slots leave, holds the
        # minimum.  Otherwise the round was room-limited, and stays so
        # while no child's readied bits, nor the gate's, fall behind the
        # bits moved.
        drained = self.moved == self.ready * per_slot
        if drained and not any(
            got == moved and have // per_slot == self.ready
            for got, have in zip(arrivals, self.received.values())
        ) and not (
            gate[1] % gate[2] == 0
            and gate[1] // gate[2] * per_slot == moved
            and gate[0] // gate[2] == self.ready
        ):
            return None
        for got, have in zip(arrivals, self.received.values()):
            if drained and got >= moved:
                continue
            # The child's readied bits beyond those moved, through its
            # slot floor's lower envelope.
            margins.append((
                have - _floor_loss(have, got, per_slot) - self.moved,
                got - moved,
            ))
        have, got, unit = gate
        if not (drained and got * per_slot >= moved * unit):
            # The same for the released slots' bits, the envelope counted
            # in ``unit / g`` parts.
            g = gcd(unit, per_slot)
            margins.append((
                ((have - _floor_loss(have, got, unit)) * per_slot
                 - unit * self.moved) // g,
                (got * per_slot - unit * moved) // g,
            ))
        return margins

    def blocks(self, delta):
        return {self.parent: delta[0]} if delta[0] else {}

    def replay(self, delta, k: int) -> None:
        # ``ready`` is recomputed by the next step: the gate's scatter
        # may not have caught up yet.
        moved, arrivals = delta
        self._idle = False
        self.moved += k * moved
        for child, got in zip(self.children, arrivals):
            self.received[child] += k * got


class _Route(_Stream):
    """Mirror of ``route_to_sink_node``: the queue is one bit count (own payload,
    then arrivals) that goes toward the sink as far as the edge has
    room each round, then the 1-bit EOS handshake.  A streaming relay's
    queue moves linearly, so it sleeps like any stream; an EOS matters
    only once the queue is empty with room left, and that round sends
    the op's own EOS and completes it.

    Counter: bits queued."""

    def __init__(self, tag, parent, children, payload_bits: int):
        super().__init__()
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.queue = payload_bits
        self.eos_pending = set(self.children)
        self.eos_sent = False
        self._inboxes: List[deque] = []

    def start(self, ctx: _Ctx) -> None:
        self._inboxes = [ctx.inbox((self.tag, c)) for c in self.children]

    def step(self, ctx: _Ctx) -> bool:
        arrived = 0
        for child, inbox in zip(self.children, self._inboxes):
            if not inbox:
                continue
            for kind, bits, _meta in inbox:
                if kind == "eos":
                    self.eos_pending.discard(child)
                else:
                    arrived += bits
            inbox.clear()
        if self.parent is None:
            self.log.append((arrived, 0))
            return not self.eos_pending
        self.queue += arrived
        sent = min(self.queue, ctx.room(self.parent))
        if sent > 0:
            ctx.send(self.parent, self.tag, "bits", sent)
            self.queue -= sent
        else:
            sent = 0
        if (
            not self.queue
            and not self.eos_pending
            and not self.eos_sent
            and ctx.room(self.parent) >= EOS_BITS
        ):
            ctx.send(self.parent, self.tag, "eos", EOS_BITS)
            self.eos_sent = True
        self.log.append((arrived, sent))
        return self.eos_sent

    def margins(self, delta):
        if self.parent is None:
            return []  # the sink takes everything
        arrived, sent = delta
        return [(self.queue, arrived - sent)]

    def blocks(self, delta):
        return {self.parent: delta[1]} if delta[1] else {}

    def replay(self, delta, k: int) -> None:
        if self.parent is not None:
            arrived, sent = delta
            self.queue += k * (arrived - sent)


class _Program:
    """A node's ops in order, with same-round chaining: a finished op
    hands the round to the next one, as a ``yield from`` chain
    resumes."""

    def __init__(self, node: str, items: List[_Op]) -> None:
        self.node = node
        self.items = items
        self.index = 0
        self.started = False
        self.done = not items

    def step_round(self, ctx: _Ctx) -> bool:
        moved = False
        while not self.done:
            op = self.items[self.index]
            if not self.started:
                op.start(ctx)
                self.started = True
            if not op.step(ctx):
                return moved
            self.index += 1
            self.started = False
            self.done = self.index == len(self.items)
            moved = True
        return moved


def _build_programs(skeleton: CostSkeleton) -> Dict[str, _Program]:
    """One program per node, in the skeleton's schedule: per star
    [scatter ∥ combine, rebuild], each combine gated by the scatter on
    its tree, then the route, then the output player's finish."""
    schedule = skeleton.schedule
    counts = {star.star_id: star.counts for star in skeleton.stars}
    programs: Dict[str, _Program] = {}
    for node in skeleton.nodes:
        steps = schedule[node]
        items: List[_Op] = []
        for role in steps.stars:
            star_counts = counts[role.star_id]
            scatter = [
                _Broadcast(
                    stream.tag, stream.parent, stream.children,
                    skeleton.tuple_bits,
                    star_counts[j] if role.is_root else None,
                )
                for j, stream in zip(role.trees, role.scatter)
            ]
            combine = [
                _Convergecast(
                    stream.tag, stream.parent, stream.children,
                    skeleton.value_bits, star_counts[j], gate, scatter,
                )
                for j, stream, gate in zip(role.trees, role.combine, scatter)
            ]
            items.extend([
                _Parallel(scatter + combine),
                _Compute(f"s{role.star_id}:rebuild"),
            ])
        route = steps.route
        if route is not None:
            items.append(_Parallel([
                _Route(
                    route.tag, route.parent, route.children,
                    skeleton.route.payload_counts.get(node, 0)
                    * skeleton.item_bits,
                )
            ]))
        if steps.is_output:
            items.append(_Compute("finish"))
        programs[node] = _Program(node, items)
    return programs


def _wire(
    programs: Dict[str, _Program], contexts: Dict[str, _Ctx]
) -> Dict[Tuple[str, str], _Stream]:
    """Set every stream's ``node``, ``ctx``, ``reads``, ``readers`` and
    ``watchers``; return the streams by ``(node, tag)``.

    No two streams of one parallel group send on one directed link: a
    star's packing trees are edge-disjoint and its combine runs up the
    tree its scatter runs down.  That keeps a dormant stream's room on
    its link its own, so a group that breaks it is refused."""
    streams: Dict[Tuple[str, str], _Stream] = {}
    parallels = []
    for node, prog in programs.items():
        for op in prog.items:
            if isinstance(op, _Parallel):
                for stream in op.members:
                    stream.node, stream.ctx = node, contexts[node]
                    streams[(node, stream.tag)] = stream
                if len(op.members) > 1:
                    parallels.append(op.members)
    for (node, tag), stream in streams.items():
        ups = stream.children if stream.reads_children else [stream.parent]
        for up in ups:
            upstream = streams.get((up, tag))
            if upstream is not None:
                stream.reads.append(upstream)
                upstream.readers.append(stream)
                upstream.watchers.append(stream)
        gate = getattr(stream, "gate", None)
        if gate is not None and gate.parent is not None:
            # The gate moves with what its scatter reads.
            streams[(gate.parent, gate.tag)].watchers.append(stream)
    for members in parallels:
        links = set()
        for stream in members:
            downs = [stream.parent] if stream.reads_children else stream.children
            for dst in filter(None, downs):
                if dst in links:
                    raise CostModelError(
                        f"{stream.node} -> {dst}: two streams of one "
                        f"parallel group share the link")
                links.add(dst)
    return streams


def _steady_sends(prog: _Program) -> List[tuple]:
    """The blocks of a node none of whose streams is awake: its current
    group's dormant streams' steady blocks, in member order."""
    return [blk for member in prog.items[prog.index].live if member.wake > 0
            for blk in member.steady_blocks()]


def _settle(steady: List[_Stream], round_no: int) -> List[_Stream]:
    """Which of ``steady`` — streams that stepped this round on a node
    that neither moved nor flagged a one-off, and repeated their last
    round — go dormant, with ``wake``, ``since`` and ``out`` set.

    A stream settles alone when it is not ``blocked`` and its horizon
    ``h`` is at least 1, and wakes at ``round + h + 1``.
    """
    settled = []
    for stream in steady:
        if stream.blocked < round_no:
            horizon = stream.horizon()
            if horizon > 0:
                stream.wake = round_no + horizon + 1
                stream.since = round_no
                stream.out = stream.blocks(stream.log[1])
                settled.append(stream)
    return settled


def _catch_up(
    stream: _Stream, through: int, bits_per_edge: Dict[Tuple[str, str], int]
) -> int:
    """Apply a dormant stream's rounds ``since + 1 .. through`` (``k``
    deltas, ``k`` times its blocks on its links) and return their bits;
    its readers are paid separately (:meth:`_Stream.pay`)."""
    k = through - stream.since
    if k < 1:
        return 0
    stream.replay(stream.log[1], k)
    added = 0
    for dst, bits in stream.out.items():
        bits_per_edge[(stream.node, dst)] += k * bits
        added += k * bits
    return added


class Timed(NamedTuple):
    """One count-plane run: its four metrics, its skips (the rounds
    ``start + 1 .. end`` of each, none of which steps a stream), the
    round its loop ended in and the round each node's program finished
    in (none for a node with nothing to run)."""

    cost: CostVector
    skips: int
    skipped_rounds: int
    last_round: int
    finished: Dict[str, int]


def evaluate_timing(
    skeleton: CostSkeleton, max_rounds: int = 1_000_000
) -> CostVector:
    """Run the timing recurrence ρ to completion — the exact oracle.

    A fresh run every call (tests and benches patch its rules);
    pricing and compiled runs share one per skeleton
    (:func:`shared_timing`).
    """
    return run_timing(skeleton, max_rounds).cost


#: One count-plane run per skeleton per process: a compiled run and
#: the pricing of its plan read the same one, and so do a scenario's
#: compiled planes.
_TIMING_MEMO = LRUMemo("protocols.timing", maxsize=1024)


def shared_timing(
    skeleton: CostSkeleton, max_rounds: int, tracer: Optional[Tracer] = None,
) -> Timed:
    """The skeleton's count-plane run, made once per process.

    A hit is the run a miss would make: when ``max_rounds`` is too few
    rounds for it, it raises the same overrun, naming the nodes still
    running then.  A live ``tracer`` is shown a run stepped for it,
    which is then the shared one (the caller emits ``RunStart``).
    """
    if tracer is not None:
        timed = run_timing(skeleton, max_rounds, tracer)
        _TIMING_MEMO.get_or_compute(skeleton.key, lambda: timed)
        return timed
    timed = _TIMING_MEMO.get_or_compute(
        skeleton.key, lambda: run_timing(skeleton, max_rounds)
    )
    if timed.last_round > max_rounds:
        raise CostModelError(_overrun(max_rounds, sorted(
            node for node, end in timed.finished.items() if end > max_rounds
        )))
    return timed


def _overrun(max_rounds: int, live) -> str:
    return f"cost model exceeded max_rounds={max_rounds} (live nodes: {list(live)})"


def run_timing(
    skeleton: CostSkeleton, max_rounds: int,
    tracer: Optional[Tracer] = None,
) -> Timed:
    """The recurrence's round loop, run once.

    Blocks sent in round ``t`` are delivered in ``t + 1``; ``rounds`` is
    the last round with any send; deliveries to finished programs are
    dropped.  Raises :class:`CostModelError` on deadlock or round
    overrun.  A round's sends fold into one ``{(src, dst): bits}`` dict
    in send order, added once per link to ``total_bits`` and
    ``bits_per_edge`` (first-seen key order, as the generator engine
    keeps it).

    Only changing streams step.  :func:`_settle` picks the streams that
    go dormant.  A dormant stream is not stepped: its steady blocks
    reach a reader only through :meth:`_Stream.pay`, and it steps again
    at its horizon or the round after a stream it reads changed its
    blocks (a final round is a change, and a reader may not settle the
    round after it).  Waking, it catches up arithmetically
    (:func:`_catch_up`).  When every running stream is dormant the round
    counter skips to the earliest wake.  A dormant stream's links were
    charged when it stepped and no other stream sends on them
    (:func:`_wire`), so ``max_edge_bits_per_round`` cannot change: the
    result is identical to stepping every stream every round.

    A live ``tracer`` is shown every round: each round boundary, each
    send (a dormant stream's steady blocks included, in node, op and
    member order), each compute step and one ``CycleFastForward`` per
    skip, carrying the full round's sends, so replaying the trace
    reproduces the run's accounting exactly (:mod:`repro.obs.verify`).
    The caller emits ``RunStart``.
    """
    programs = _build_programs(skeleton)
    contexts = {n: _Ctx(n, skeleton.capacity, tracer) for n in skeleton.nodes}
    receivers = _wire(programs, contexts)
    # The running programs in step order (sorted by node), with their
    # contexts; rebuilt only in a round in which a program finished.
    live = [
        (programs[n], contexts[n])
        for n in sorted(programs) if not programs[n].done
    ]
    # Their positions there, by context, and the positions of those
    # with an awake stream (all of them before their first round).
    order = list(live)
    finished: Dict[str, int] = {}
    rank = {ctx: i for i, (_prog, ctx) in enumerate(order)}
    stepping = set(range(len(order)))

    total_bits = 0
    last_send_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0
    # Dormant streams that send, and the streams by wake round (an
    # entry whose round is no longer the stream's ``wake`` is stale).
    steady_senders = 0
    wakes: Dict[int, List[_Stream]] = {}
    sent_before = False
    skips = skipped_rounds = 0
    stream_steps = 0

    round_no = 0
    while True:
        round_no += 1
        if tracer is not None:
            tracer.round_start(round_no)
        if round_no > max_rounds:
            raise CostModelError(
                _overrun(max_rounds, (prog.node for prog, _ctx in live))
            )
        due = wakes.pop(round_no, None)
        if due is not None:
            last = round_no - 1
            woke = []
            for stream in due:
                if stream.wake != round_no:
                    continue  # stale, or listed twice
                woke.append(stream)
                total_bits += _catch_up(stream, last, bits_per_edge)
                stream.wake = _AWAKE
                if not stream.ctx.awake:
                    stepping.add(rank[stream.ctx])
                stream.ctx.awake += 1
                # It replayed what they sent before last round.
                for u in stream.reads:
                    u.paid[stream.node] = last - 1
                for reader in stream.readers:
                    reader.dozing -= 1
                if stream.out:
                    steady_senders -= 1
            # What they slept through and a reader that is not dormant
            # has not taken: its last slept round to a running reader,
            # every one to a reader whose op has not started.
            for stream in woke:
                for reader in stream.readers:
                    stream.pay(reader, last)

        round_sends: List[Tuple[str, str, str, str, int, object]] = []
        steady: List[_Stream] = []
        changed: List[_Stream] = []
        finished_any = False
        moved_any = False
        for i in sorted(stepping):
            prog, ctx = order[i]
            ctx.round = round_no
            if ctx.sent:
                ctx.sent = {}
            if tracer is not None:
                ctx.shown = []
            moved = prog.step_round(ctx)
            if ctx.outbox:
                round_sends += ctx.outbox
                ctx.outbox = []
            if moved or ctx.one_off:  # a finished program moved, too
                ctx.one_off = False
                changed += ctx.steady
                ctx.steady = []
                if moved:
                    moved_any = True
                    if prog.done:
                        finished_any = True
            elif ctx.steady:
                steady += ctx.steady
                ctx.steady = []
            if ctx.changed:
                changed += ctx.changed
                ctx.changed = []
            if not ctx.awake:
                stepping.discard(i)
        stream_steps += len(steady) + len(changed)
        if tracer is not None:
            for prog, ctx in live:
                shown = ctx.shown if ctx.round == round_no \
                    else _steady_sends(prog)
                for src, dst, tag, kind, bits, _meta in shown:
                    tracer.send(round_no, src, dst, bits, tag=tag, kind=kind)
        if finished_any:
            for prog, _ctx in live:
                if prog.done:
                    finished[prog.node] = round_no
            live = [(prog, ctx) for prog, ctx in live if not prog.done]

        if round_sends:
            round_edge_bits: Dict[Tuple[str, str], int] = {}
            for src, dst, _tag, _kind, bits, _meta in round_sends:
                link = (src, dst)
                round_edge_bits[link] = round_edge_bits.get(link, 0) + bits
            for link, bits in round_edge_bits.items():
                total_bits += bits
                bits_per_edge[link] = bits_per_edge.get(link, 0) + bits
            busiest = max(round_edge_bits.values())
            if busiest > max_edge_bits_per_round:
                max_edge_bits_per_round = busiest
        sent = bool(round_sends) or steady_senders > 0
        if sent:
            last_send_round = round_no

        if not live and not sent:
            break
        if live and not sent and not sent_before and not finished_any \
                and not moved_any:
            raise CostModelError(
                f"cost model deadlocked at round {round_no} "
                f"(live nodes: {[prog.node for prog, _ctx in live]})"
            )
        sent_before = sent

        # A stream whose blocks changed changes what its readers get next
        # round (a final one, also the round after): they may not settle
        # now, and dormant ones wake next round.
        soon = round_no + 1
        for stream in changed:
            until = soon if stream.wake == _DONE else round_no
            for reader in stream.watchers:
                if reader.blocked < until:
                    reader.blocked = until
                if reader.wake > soon:
                    reader.wake = soon
                    wakes.setdefault(soon, []).append(reader)
        if steady:
            for stream in _settle(steady, round_no):
                stream.ctx.awake -= 1
                if not stream.ctx.awake:
                    stepping.discard(rank[stream.ctx])
                for reader in stream.readers:
                    reader.dozing += 1
                if stream.out:
                    steady_senders += 1
                wakes.setdefault(stream.wake, []).append(stream)

        # This round's blocks, for next round: a reader that is running,
        # waking next round, or not yet started (buffering) gets them; a
        # dormant one replays them.
        for src, dst, tag, kind, bits, meta in round_sends:
            reader = receivers.get((dst, tag))
            if reader is not None:
                wake = reader.wake
                if wake == _AWAKE or wake == soon or wake == _WAITING:
                    contexts[dst].inbox((tag, src)).append((kind, bits, meta))

        if steady_senders and not stepping:
            # Every running stream is dormant and some send: nothing
            # changes before the earliest wake, so skip to it.
            # (Past ``max_rounds`` the next round raises the overrun.)
            first = min(wakes)
            while all(stream.wake != first for stream in wakes[first]):
                del wakes[first]  # stale
                first = min(wakes)
            target = first - 1
            if target > round_no:
                skips += 1
                skipped_rounds += target - round_no
                if tracer is not None:
                    tracer.cycle_fast_forward(
                        start_round=round_no,
                        repeats=target - round_no,
                        end_round=target,
                        sends=tuple(
                            blk[:5] for prog, _ctx in live
                            for blk in _steady_sends(prog)
                        ),
                    )
                round_no = last_send_round = target

    COUNTERS.increment("costmodel.rounds", last_send_round)
    COUNTERS.increment("costmodel.fast_forward_rounds", skipped_rounds)
    COUNTERS.increment("costmodel.stream_steps", stream_steps)
    return Timed(
        CostVector(
            rounds=last_send_round,
            total_bits=total_bits,
            max_edge_bits_per_round=max_edge_bits_per_round,
            bits_per_edge=bits_per_edge,
        ),
        skips, skipped_rounds, round_no, finished,
    )
