"""The timing recurrence ρ — exact rounds and per-round load, no data.

The closed forms in :mod:`repro.costmodel.formulas` price *how many
bits* cross each link (structural, timing-free).  *When* they cross —
the round count and the busiest link-round — is decided by the engines'
self-timed pipelining.  This module evaluates that recurrence exactly,
in the **count plane**: it replays the per-round decisions of the block
engine's ops (:mod:`repro.network.program`) on a :class:`CostSkeleton`,
tracking only integer counts — no tuples, no semiring values, no
simulator, no protocol execution.

This is a deliberate *independent reimplementation* of the op semantics
(bit framing — each round a stream puts ``min(bits available, room)``
bits on its link, so an item may straddle rounds — the convergecast's
min-over-children slot gate, the routing queue as one bit count and its
EOS handshake, same-round op chaining, round-``t`` blocks delivered at
``t+1``): the lab compares its output for **equality** against both
engines over the fuzzed plane, so any drift between an engine and this
model is a caught bug in one of them, not noise.  The generator and
compiled engines are themselves parity-gated against each other, so one
evaluation prices all planes.

Streaming costs O(phases + transients), not O(rounds): a steady stream
sends the same bits every round, so once a round's send list repeats
the recurrence jumps whole stretches of rounds arithmetically (see
:func:`evaluate_timing`) — star phases and routed payload alike.  The
jump is written against this module's own integer state — each op logs
what a round added to its bit counters and turns its current counters
and that delta into the *margins* that keep its ``min(...)`` guards
from flipping — and shares no code with the block engine's
fast-forward, so the independence above still holds.

What each node runs, in what order and on which links, is not round
logic: it is the plan's schedule
(:func:`~repro.protocols.schedule.build_schedule`, applied to the
skeleton's own parent maps), the one thing this module shares with the
engines beyond the two wire constants.

A stepped round is kept cheap in this module's own code, too: an op
takes its input queues when it starts (:meth:`_Ctx.inbox`) and drains
them in place; and a parallel group and the round loop each walk a
list of what is still running, rebuilt only when something finishes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network.program import EOS_BITS, HEADER_BITS
from ..obs.counters import COUNTERS
from .skeleton import CostSkeleton


class CostModelError(Exception):
    """The cost model could not price a scenario (a model bug: the lab
    records it as a mismatch and serving rejects the session)."""


@dataclass(frozen=True)
class CostVector:
    """The four predicted metrics for one scenario."""

    rounds: int
    total_bits: int
    max_edge_bits_per_round: int
    bits_per_edge: Dict[Tuple[str, str], int]


class _Ctx:
    """Count-plane ProgramContext: per-round room + next-round delivery.

    A parallel group sets ``one_off`` in a round no steady stretch can
    contain: one of its members finished.
    """

    __slots__ = ("node", "capacity", "queues", "sent", "outbox", "one_off")

    def __init__(self, node: str, capacity: int) -> None:
        self.node = node
        self.capacity = capacity
        self.queues: Dict[Tuple[str, str], deque] = {}
        self.sent: Dict[str, int] = {}
        self.outbox: List[Tuple[str, str, str, str, int, object]] = []
        self.one_off = False

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

    def inbox(self, stream: Tuple[str, str]) -> deque:
        """The queue of ``stream`` = ``(tag, src)``, made if missing.

        An op takes its queues when it starts and empties them in place
        every round it is current, so a queue still holding blocks after
        a round is buffering for a later op (:func:`_materialize`).
        """
        queue = self.queues.get(stream)
        if queue is None:
            queue = self.queues[stream] = deque()
        return queue


#: Horizon of an op no boundary constrains (dormant, or margins growing).
_UNBOUNDED = 1 << 62


class _Op:
    """One blocking op of a node program.

    :meth:`horizon` and :meth:`jump` are called only when the last two
    rounds held no one-off and no program transition.
    """

    def start(self, ctx: _Ctx) -> None:
        pass

    def step(self, ctx: _Ctx) -> bool:
        raise NotImplementedError

    def horizon(self) -> int:
        """How many more rounds replay the last one identically, given
        that its arrivals repeat (0 declines).

        Must leave the op as it was: a jump check stops asking at the
        first op that declines, so which ops are asked depends on the
        ops stepped before them.
        """
        raise NotImplementedError

    def jump(self, k: int) -> None:
        """Apply ``k`` replays of the last round."""
        raise NotImplementedError


class _Stream(_Op):
    """An op whose steady state moves integer bit counters linearly.

    ``log`` holds, per stepped round, that round's delta: what it added
    to each counter.  When :meth:`horizon` is called its two entries are
    the last two rounds; if they agree, every counter moves by the same
    delta each further round, and so does every guard of the op's
    ``min(...)`` decisions.
    :meth:`margins` turns the current counters and that delta into
    ``(margin, slope)`` pairs: each margin must stay at least 0 for the
    round to replay, and moves by its slope a round.
    """

    def __init__(self) -> None:
        self.log: deque = deque(maxlen=2)

    def horizon(self) -> int:
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

    def jump(self, k: int) -> None:
        self.replay(self.log[1], k)

    def margins(self, delta) -> Optional[List[Tuple[int, int]]]:
        """The op's ``(margin, slope)`` guards under ``delta``; None
        declines outright."""
        raise NotImplementedError

    def replay(self, delta, k: int) -> None:
        """Advance the counters by ``k`` times one round's delta."""
        raise NotImplementedError


class _Compute(_Op):
    """Free local computation: completes in place (Model 2.1)."""

    def step(self, ctx: _Ctx) -> bool:
        return True


class _Parallel(_Op):
    """Members stepped in input order each round, sharing capacity."""

    def __init__(self, members: List[_Op]) -> None:
        self.members = members
        #: Members still running, in input order; rebuilt only in a
        #: round in which one finished.
        self.live = list(members)

    def start(self, ctx: _Ctx) -> None:
        for member in self.members:
            member.start(ctx)

    def step(self, ctx: _Ctx) -> bool:
        finished = []
        for member in self.live:
            if member.step(ctx):
                finished.append(member)
        if finished:
            self.live = [m for m in self.live if m not in finished]
            # The member's final sends are in this round, and no op
            # state stands behind a replay of them.  The program
            # index does not move, so only this flag says so.
            ctx.one_off = True
        return not self.live

    def horizon(self) -> int:
        k = _UNBOUNDED
        for member in self.live:
            horizon = member.horizon()
            if horizon < 1:
                return 0
            k = min(k, horizon)
        return k

    def jump(self, k: int) -> None:
        for member in self.live:
            member.jump(k)


class _Broadcast(_Stream):
    """Mirror of BroadcastOp.step, in bits: the stream is the header
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

    def _learn(self, count: int) -> None:
        self.count = count
        self.length = HEADER_BITS + count * self.per_item

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
        # arrival here is bounded by the sender's own margin), and each
        # child's backlog stays non-negative (its send room-limited).
        margins = []
        for done, bits in zip(self.forwarded.values(), sent):
            if bits:
                margins.append((self.length - 1 - done, -bits))
            margins.append((self.held - done, arrived - bits))
        return margins

    def replay(self, delta, k: int) -> None:
        arrived, sent = delta
        self.held += k * arrived
        for child, bits in zip(self.children, sent):
            self.forwarded[child] += k * bits


class _Convergecast(_Stream):
    """Mirror of ConvergecastOp.step, in bits: slot i is ready once
    every child's slot i has fully landed, and ready bits go up as far
    as the edge has room.

    Counters: bits moved up (none at the root), then bits received per
    child."""

    def __init__(self, tag, parent, children, per_slot, num_slots):
        super().__init__()
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_slot = max(1, per_slot)
        self.num_slots = int(num_slots)
        self.ready = 0
        self.moved = 0
        self.received = {c: 0 for c in self.children}
        self._inboxes: List[deque] = []
        self._no_arrivals = (0,) * len(self.children)
        #: The last round was idle — nothing arrived and every ready bit
        #: was out — so ``log[-1]`` is also the entry of the next idle
        #: round.  A jump drops it: it moves the counters behind it.
        self._idle = False

    def start(self, ctx: _Ctx) -> None:
        self._inboxes = [ctx.inbox((self.tag, c)) for c in self.children]

    def _ready(self) -> int:
        if not self.children:
            return self.num_slots
        return min(self.num_slots, min(self.received.values()) // self.per_slot)

    def step(self, ctx: _Ctx) -> bool:
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
        elif self._idle:
            self.log.append(self.log[-1])
            return False
        else:
            arrivals = self._no_arrivals
        self.ready = self._ready()
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

    def margins(self, delta):
        moved, arrivals = delta
        if self.parent is None or (not moved and not any(arrivals)):
            # The root sends nothing: it replays while its children do,
            # and their own margins keep their last bit out of the jump.
            return []
        per_slot = self.per_slot
        margins = []
        if moved:
            margins.append((self.num_slots * per_slot - self.moved - 1, -moved))
        # Drained (every ready bit is out): a round moves exactly the
        # slots that became ready, which repeats only while a child whose
        # bits arrive as fast as they leave (whole slots) holds the
        # minimum.  Otherwise the round was room-limited, and stays so
        # while no child's readied bits fall behind the bits moved.
        drained = self.moved == self.ready * per_slot
        if drained and not any(
            got == moved and have // per_slot == self.ready
            for got, have in zip(arrivals, self.received.values())
        ):
            return None
        for got, have in zip(arrivals, self.received.values()):
            if drained and got >= moved:
                continue
            # The child's readied bits beyond those moved: exact when it
            # delivers whole slots a round, else its linear lower
            # envelope ``have - (per_slot - 1)``, which the slot floor
            # never undercuts.
            if got % per_slot:
                ahead = have - (per_slot - 1) - self.moved
            else:
                ahead = have - have % per_slot - self.moved
            margins.append((ahead, got - moved))
        return margins

    def replay(self, delta, k: int) -> None:
        moved, arrivals = delta
        self._idle = False
        self.moved += k * moved
        for child, got in zip(self.children, arrivals):
            self.received[child] += k * got
        self.ready = self._ready()


class _Route(_Stream):
    """Mirror of RouteOp.step: the queue is one bit count (own payload,
    then arrivals) that goes toward the sink as far as the edge has
    room each round, then the 1-bit EOS handshake.  A streaming relay's
    queue moves linearly, so it jumps like any stream; an EOS matters
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

    def replay(self, delta, k: int) -> None:
        if self.parent is not None:
            arrived, sent = delta
            self.queue += k * (arrived - sent)


class _Program:
    """Mirror of NodeProgram: ops in order, same-round chaining."""

    def __init__(self, node: str, items: List[_Op]) -> None:
        self.node = node
        self.items = items
        self.index = 0
        self.started = False
        self.done = not items

    @property
    def current(self) -> _Op:
        """The op a live program is blocked in."""
        return self.items[self.index]

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
    """One count-plane program per node, in the skeleton's schedule:
    per star [scatter ∥, score, combine ∥, rebuild], then the route,
    then the output player's finish."""
    schedule = skeleton.schedule
    counts = {star.star_id: star.counts for star in skeleton.stars}
    programs: Dict[str, _Program] = {}
    for node in skeleton.nodes:
        steps = schedule[node]
        items: List[_Op] = []
        for role in steps.stars:
            star_counts = counts[role.star_id]
            scatter: List[_Op] = [
                _Broadcast(
                    stream.tag, stream.parent, stream.children,
                    skeleton.tuple_bits,
                    star_counts[j] if role.is_root else None,
                )
                for j, stream in zip(role.trees, role.scatter)
            ]
            combine: List[_Op] = [
                _Convergecast(
                    stream.tag, stream.parent, stream.children,
                    skeleton.value_bits, star_counts[j],
                )
                for j, stream in zip(role.trees, role.combine)
            ]
            items.extend(
                [_Parallel(scatter), _Compute(), _Parallel(combine), _Compute()]
            )
        route = steps.route
        if route is not None:
            items.append(
                _Route(
                    route.tag, route.parent, route.children,
                    skeleton.route.payload_counts.get(node, 0)
                    * skeleton.item_bits,
                )
            )
        if steps.is_output:
            items.append(_Compute())
        programs[node] = _Program(node, items)
    return programs


def _steady_cycles(history, live, limit) -> int:
    """Rounds every live op can replay the last one for, at most
    ``limit``; 0 means step on.

    The last two rounds must have sent the same blocks (two silent
    rounds would already have raised the deadlock error) and every live
    op must grant a horizon; the first that declines ends the check.
    """
    if history[0][0] != history[1][0]:
        return 0
    k = limit
    for prog, _ctx in live:
        k = min(k, prog.current.horizon())
        if k < 1:
            return 0
    return k


def _materialize(sends, k, contexts) -> None:
    """Deliver what ``k`` skipped replays of a round's ``sends`` put in
    mailboxes.

    A stream whose queue still holds blocks after the stepped round is
    not read by its receiver's current op, which empties the queues it
    reads every round: it is buffering for a later one (the next star's
    scatter reaching a node still busy in this star).  ``k`` is at most
    that op's horizon, so the receiver stays in it for the whole jump and
    the stream buffers throughout.  A stream with an empty queue is read
    by the current op, whose own ``jump`` accounts for it — or its
    receiver runs no program or has finished (an op completes only once
    its streams are fully read), and the round loop drops those
    deliveries too.

    The skipped rounds deliver the round's sends ``k`` times: they start
    at the stepped round's own sends, and those stay ``pending`` for the
    round after the jump.  A steady round carries no header-completing
    frame and no EOS (each is sent once, so the round before differs),
    and readers sum bits, so one entry per stream stands for all ``k``.
    """
    for src, dst, tag, kind, bits, _meta in sends:
        ctx = contexts.get(dst)
        queue = ctx.queues.get((tag, src)) if ctx is not None else None
        if queue:
            queue.append((kind, k * bits, None))


def evaluate_timing(
    skeleton: CostSkeleton, max_rounds: int = 1_000_000
) -> CostVector:
    """Run the timing recurrence ρ to completion — the exact oracle.

    Implements the engines' round loop: blocks sent in round ``t`` are
    delivered in ``t + 1``; ``rounds`` is the last round with any send;
    deliveries to finished programs are dropped.  Raises
    :class:`CostModelError` on deadlock or round overrun, which can only
    mean a model bug (the engines themselves would have deadlocked too).

    A round's sends fold into one ``{(src, dst): bits}`` dict in send
    order, which is added once per link to ``total_bits`` and
    ``bits_per_edge`` (first-seen key order, as the engines keep it).

    Steady streaming is not stepped.  When the last two rounds sent the
    same blocks and held no program transition and no one-off (see
    :class:`_Ctx`), all live ops replay the round ``k`` times
    arithmetically — ``k`` being the smallest :meth:`_Op.horizon`,
    capped so ``max_rounds`` is still enforced by a stepped round — and
    the streams no current op reads are delivered to their mailboxes
    (:func:`_materialize`).  Only counters advance, so
    ``max_edge_bits_per_round`` cannot change.  Scatter, combine and
    routed payload all jump alike.
    """
    programs = _build_programs(skeleton)
    contexts = {n: _Ctx(n, skeleton.capacity) for n in skeleton.nodes}
    # The running programs in step order (sorted by node), with their
    # contexts; rebuilt only in a round in which a program finished.
    live = [
        (programs[n], contexts[n])
        for n in sorted(programs) if not programs[n].done
    ]

    pending: List[Tuple[str, str, str, str, int, object]] = []
    total_bits = 0
    last_send_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0
    # The last two rounds' (sends, per-link bits), and the last round
    # that cannot be part of a steady stretch: a program moved to its
    # next op or finished, or an op flagged a one-off.
    history: deque = deque(maxlen=2)
    last_change_round = 0
    jumped_rounds = 0

    round_no = 0
    while True:
        round_no += 1
        if round_no > max_rounds:
            raise CostModelError(
                f"cost model exceeded max_rounds={max_rounds} "
                f"(live nodes: {[prog.node for prog, _ctx in live]})"
            )
        had_pending = bool(pending)
        for src, dst, tag, kind, bits, meta in pending:
            prog = programs.get(dst)
            if prog is not None and not prog.done:
                contexts[dst].inbox((tag, src)).append((kind, bits, meta))

        round_sends: List[Tuple[str, str, str, str, int, object]] = []
        finished_any = False
        moved_any = False
        for prog, ctx in live:
            if ctx.sent:
                ctx.sent = {}
            moved = prog.step_round(ctx)
            if ctx.outbox:
                round_sends += ctx.outbox
                ctx.outbox = []
            if moved:
                moved_any = True
            if moved or ctx.one_off:  # a finished program moved, too
                ctx.one_off = False
                last_change_round = round_no
            if prog.done:
                finished_any = True
        if finished_any:
            live = [(prog, ctx) for prog, ctx in live if not prog.done]

        round_edge_bits: Dict[Tuple[str, str], int] = {}
        if round_sends:
            last_send_round = round_no
            for src, dst, _tag, _kind, bits, _meta in round_sends:
                link = (src, dst)
                round_edge_bits[link] = round_edge_bits.get(link, 0) + bits
            for link, bits in round_edge_bits.items():
                total_bits += bits
                bits_per_edge[link] = bits_per_edge.get(link, 0) + bits
            busiest = max(round_edge_bits.values())
            if busiest > max_edge_bits_per_round:
                max_edge_bits_per_round = busiest

        if not live and not round_sends:
            break
        if live and not round_sends and not had_pending and not finished_any \
                and not moved_any:
            raise CostModelError(
                f"cost model deadlocked at round {round_no} "
                f"(live nodes: {[prog.node for prog, _ctx in live]})"
            )
        pending = round_sends

        history.append((round_sends, round_edge_bits))
        if round_no - last_change_round < 2:
            continue
        k = _steady_cycles(history, live, max_rounds - round_no)
        if k:
            for prog, _ctx in live:
                prog.current.jump(k)
            _materialize(round_sends, k, contexts)
            for link, bits in round_edge_bits.items():
                total_bits += k * bits
                bits_per_edge[link] += k * bits
            round_no += k
            # Logged deltas predate the jump: two freshly stepped rounds
            # come before the next one.
            last_send_round = last_change_round = round_no
            jumped_rounds += k

    COUNTERS.increment("costmodel.rounds", last_send_round)
    COUNTERS.increment("costmodel.fast_forward_rounds", jumped_rounds)
    return CostVector(
        rounds=last_send_round,
        total_bits=total_bits,
        max_edge_bits_per_round=max_edge_bits_per_round,
        bits_per_edge=bits_per_edge,
    )
