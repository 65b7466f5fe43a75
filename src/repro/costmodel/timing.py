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
(header chunking, per-round forwarding budgets, the convergecast's
min-over-children gate, the routing EOS handshake, same-round op
chaining, round-``t`` blocks delivered at ``t+1``): the lab compares its
output for **equality** against both engines over the fuzzed plane, so
any drift between an engine and this model is a caught bug in one of
them, not noise.  The generator and compiled engines are themselves
parity-gated against each other, so one evaluation prices all planes.

Star phases cost O(phases + transients), not O(rounds): once the
round's send list repeats with period 1 or 2 the recurrence jumps whole
cycles arithmetically (see :func:`evaluate_timing`); routed payload is
still stepped.  The jump is written against this module's own integer
state — each op logs what a round added to its counters, and rebuilds
from those deltas and its current counters the *margins* that kept its
``min(...)`` guards from flipping — and shares no code with the block
engine's fast-forward, so the independence above still holds.

A stepped round is kept cheap in this module's own code, too: an op
takes its input queues when it starts (:meth:`_Ctx.inbox`) and drains
them in place; a parallel group and the round loop each walk a list of
what is still running, rebuilt only when something finishes; and each
packing tree's shape is built once per evaluation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network.program import EOS_BITS, HEADER_BITS
from ..obs.counters import COUNTERS
from .skeleton import CostSkeleton, RouteSkeleton, StarSkeleton


class CostModelError(Exception):
    """The cost model could not price a scenario (model bug or an
    uncovered structure — never silently swallowed)."""


@dataclass(frozen=True)
class CostVector:
    """The four predicted metrics for one scenario."""

    rounds: int
    total_bits: int
    max_edge_bits_per_round: int
    bits_per_edge: Dict[Tuple[str, str], int]


class _Ctx:
    """Count-plane ProgramContext: per-round room + next-round delivery.

    An op sets ``one_off`` in a round no steady cycle can contain: a
    header or EOS moved, routed chunks moved, a parallel member finished.
    """

    __slots__ = ("node", "capacity", "queues", "sent", "outbox", "one_off")

    def __init__(self, node: str, capacity: int) -> None:
        self.node = node
        self.capacity = capacity
        self.queues: Dict[Tuple[str, str], deque] = {}
        self.sent: Dict[str, int] = {}
        self.outbox: List[Tuple[str, str, str, str, int, int, object]] = []
        self.one_off = False

    def room(self, dst: str) -> int:
        return self.capacity - self.sent.get(dst, 0)

    def send(self, dst, tag, kind, bits, count=1, meta=None) -> None:
        used = self.sent.get(dst, 0)
        if used + bits > self.capacity:
            raise CostModelError(
                f"model overdrew capacity: {self.node}->{dst} "
                f"{used + bits} > {self.capacity}"
            )
        self.sent[dst] = used + bits
        self.outbox.append((self.node, dst, tag, kind, bits, count, meta))

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

    :meth:`horizon` and :meth:`jump` are called only when the last
    ``2 * period`` rounds held no one-off and no program transition.
    """

    def start(self, ctx: _Ctx) -> None:
        pass

    def step(self, ctx: _Ctx) -> bool:
        raise NotImplementedError

    def horizon(self, period: int) -> int:
        """How many more ``period``-round cycles replay identically,
        given that the last cycle's arrivals repeat (0 declines).

        Must leave the op as it was: a jump check stops asking at the
        first op that declines, so which ops are asked depends on the
        ops stepped before them.
        """
        raise NotImplementedError

    def jump(self, period: int, k: int) -> None:
        """Apply ``k`` replays of the last ``period`` rounds."""
        raise NotImplementedError


class _Stream(_Op):
    """An op whose steady state moves integer counters linearly.

    Its counters are a head counter and one per child
    (:meth:`counters`).  ``log`` holds, per stepped round that was not a
    one-off, that round's delta ``(head, per_child)``: what it added to
    each counter.  When :meth:`horizon` is called the last
    ``2 * period`` entries are exactly the last ``2 * period`` rounds,
    so taking them back one by one from the current counters gives the
    counters after each of those rounds, and :meth:`margins` of those
    the integer distances that kept every ``min(...)`` guard and the
    completion test on the side they were on.
    """

    def __init__(self) -> None:
        self.log: deque = deque(maxlen=4)

    def horizon(self, period: int) -> int:
        # The last two cycles must have equal deltas.  Then every margin
        # moves linearly, by its own change over one cycle; a shrinking
        # margin must stay positive at its position in every replayed
        # cycle, so the op neither flips a guard nor completes mid-jump.
        log = self.log
        for i in range(1, period + 1):
            if log[-i] != log[-i - period]:
                return 0
        counters = self.counters()
        rebuilt = [self.margins(counters)]  # newest round first
        for i in range(1, 2 * period):
            head, per_child = log[-i]
            counters = [counters[0] - head] + [
                count - added for count, added in zip(counters[1:], per_child)
            ]
            rebuilt.append(self.margins(counters))
        k = _UNBOUNDED
        for margins, margins_before in zip(rebuilt, rebuilt[period:]):
            for margin, was in zip(margins, margins_before):
                if margin < was:
                    k = min(k, (margin - 1) // (was - margin))
        return max(k, 0)

    def jump(self, period: int, k: int) -> None:
        for i in range(1, period + 1):
            self.replay(self.log[-i], k)

    def counters(self) -> List[int]:
        """The head counter, then one counter per child."""
        raise NotImplementedError

    def margins(self, counters: List[int]):
        """The guard margins of the op with these counters."""
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

    def horizon(self, period: int) -> int:
        k = _UNBOUNDED
        for member in self.live:
            horizon = member.horizon(period)
            if horizon < 1:
                return 0
            k = min(k, horizon)
        return k

    def jump(self, period: int, k: int) -> None:
        for member in self.live:
            member.jump(period, k)


#: A broadcast's delta while it waits for the header.
_DORMANT = (0, ())


class _Broadcast(_Stream):
    """Mirror of BroadcastOp.step: header first (chunked, count in the
    first chunk), then items at ``per_item`` bits, budget per child.

    Counters: items received, then items forwarded per child."""

    def __init__(self, tag, parent, children, per_item, root_count=None):
        super().__init__()
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_item = max(1, per_item)
        self.root_count = root_count
        self.count: Optional[int] = None
        self.received = 0
        self.header_left = {c: HEADER_BITS for c in self.children}
        self.header_started: set = set()
        #: Every child's header is out: a round only streams items.
        self.headers_done = not self.children
        self.forwarded = {c: 0 for c in self.children}
        self._inbox: Optional[deque] = None  # the root reads nothing

    def start(self, ctx: _Ctx) -> None:
        if self.parent is None:
            self.count = int(self.root_count or 0)
            self.received = self.count
        else:
            self._inbox = ctx.inbox((self.tag, self.parent))

    def step(self, ctx: _Ctx) -> bool:
        arrived = 0
        header_moved = False
        inbox = self._inbox
        if inbox:
            for kind, count, meta in inbox:
                if kind == "it":
                    arrived += count
                elif kind == "hdr":
                    self.count = meta
                    header_moved = True
                else:
                    header_moved = True
            inbox.clear()
            self.received += arrived
        count = self.count
        if count is None:
            # Nothing arrives or leaves before the header does.
            self.log.append(_DORMANT)
            return False
        header_left = self.header_left
        if not self.headers_done:
            for child in self.children:
                while header_left[child] > 0:
                    room = ctx.room(child)
                    if room < 1:
                        break
                    take = min(room, header_left[child])
                    if child not in self.header_started:
                        ctx.send(child, self.tag, "hdr", take, meta=count)
                        self.header_started.add(child)
                    else:
                        ctx.send(child, self.tag, "hdrc", take)
                    header_left[child] -= take
                    header_moved = True
            self.headers_done = not any(header_left.values())
        headers_done = self.headers_done
        forwarded = self.forwarded
        complete = headers_done and self.received == count
        sent = []
        for child in self.children:
            k = 0
            if headers_done or header_left[child] == 0:
                k = min(
                    self.received - forwarded[child],
                    ctx.room(child) // self.per_item,
                )
                if k > 0:
                    ctx.send(child, self.tag, "it", k * self.per_item, count=k)
                    forwarded[child] += k
            sent.append(k)
            if forwarded[child] != count:
                complete = False
        if header_moved:
            ctx.one_off = True
        else:
            self.log.append((arrived, tuple(sent)))
        return complete

    def counters(self) -> List[int]:
        return [self.received, *self.forwarded.values()]

    def margins(self, counters: List[int]):
        count = self.count
        if count is None:
            return ()  # dormant until the header
        # Items still to arrive, then per child items left to forward
        # (completion) and backlog (the send stays room-limited while it
        # is positive).
        received = counters[0]
        margins = [count - received]
        for done in counters[1:]:
            margins += (count - done, received - done)
        return margins

    def replay(self, delta, k: int) -> None:
        arrived, sent = delta
        self.received += k * arrived
        for child, items in zip(self.children, sent):
            self.forwarded[child] += k * items


class _Convergecast(_Stream):
    """Mirror of ConvergecastOp.step: slot i moves up once every child
    delivered slot i, at most ``room // per_slot`` per round.

    Counters: slots moved up, then slots delivered per child."""

    def __init__(self, tag, parent, children, per_slot, num_slots):
        super().__init__()
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_slot = max(1, per_slot)
        self.num_slots = int(num_slots)
        self.out_idx = 0
        self.buffered = {c: 0 for c in self.children}
        self._inboxes: List[deque] = []
        self._no_arrivals = (0,) * len(self.children)
        #: The last round was idle — nothing arrived and nothing was left
        #: to move — so ``log[-1]`` is also the entry of the next idle
        #: round.  A jump drops it: it moves the counters behind it.
        self._idle = False

    def start(self, ctx: _Ctx) -> None:
        self._inboxes = [ctx.inbox((self.tag, c)) for c in self.children]

    def step(self, ctx: _Ctx) -> bool:
        arrived = any(self._inboxes)
        if arrived:
            arrivals = []
            for child, inbox in zip(self.children, self._inboxes):
                got = 0
                for _kind, count, _meta in inbox:
                    got += count
                inbox.clear()
                self.buffered[child] += got
                arrivals.append(got)
            arrivals = tuple(arrivals)
        elif self._idle:
            self.log.append(self.log[-1])
            return False
        else:
            arrivals = self._no_arrivals
        if self.children:
            avail = min(self.buffered.values())
        else:
            avail = self.num_slots
        k = min(self.num_slots, avail) - self.out_idx
        self._idle = k <= 0 and not arrived
        if k <= 0:
            k = 0
        elif self.parent is not None:
            k = min(k, ctx.room(self.parent) // self.per_slot)
            if k > 0:
                ctx.send(self.parent, self.tag, "slot",
                         k * self.per_slot, count=k)
        self.out_idx += k
        self.log.append((k, arrivals))
        return self.out_idx >= self.num_slots

    def counters(self) -> List[int]:
        return [self.out_idx, *self.buffered.values()]

    def margins(self, counters: List[int]):
        # Slots left to move (completion), then per child how far its
        # deliveries run ahead of what has moved up.
        out_idx = counters[0]
        return [self.num_slots - out_idx,
                *(got - out_idx for got in counters[1:])]

    def replay(self, delta, k: int) -> None:
        moved, arrivals = delta
        self._idle = False
        self.out_idx += k * moved
        for child, got in zip(self.children, arrivals):
            self.buffered[child] += k * got


class _Route(_Op):
    """Mirror of RouteOp.step: greedy store-and-forward of chunk sizes
    toward the sink, then the 1-bit EOS handshake.  Every round that
    moves a chunk or an EOS is a one-off, so only an idle route (waiting
    on its children while stars still stream elsewhere) joins a jump; a
    streaming one declines, which is always exact."""

    def __init__(self, tag, parent, children, chunks: List[int]):
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.queue: deque = deque(chunks)
        self.eos_pending = set(self.children)
        self.eos_sent = False
        self._inboxes: List[deque] = []

    def start(self, ctx: _Ctx) -> None:
        self._inboxes = [ctx.inbox((self.tag, c)) for c in self.children]

    def step(self, ctx: _Ctx) -> bool:
        for child, inbox in zip(self.children, self._inboxes):
            if not inbox:
                continue
            ctx.one_off = True
            for kind, _count, meta in inbox:
                if kind == "eos":
                    self.eos_pending.discard(child)
                else:  # "run": meta is the chunk-size tuple
                    self.queue.extend(meta)
            inbox.clear()
        if self.parent is None:
            self.queue.clear()
            return not self.eos_pending
        sent: List[int] = []
        room = ctx.room(self.parent)
        while self.queue and room >= self.queue[0]:
            size = self.queue.popleft()
            room -= size
            sent.append(size)
        if sent:
            ctx.one_off = True
            ctx.send(self.parent, self.tag, "run", sum(sent),
                     count=len(sent), meta=tuple(sent))
        if (
            not self.queue
            and not self.eos_pending
            and not self.eos_sent
            and ctx.room(self.parent) >= EOS_BITS
        ):
            ctx.send(self.parent, self.tag, "eos", EOS_BITS)
            self.eos_sent = True
        return self.eos_sent

    def horizon(self, period: int) -> int:
        return _UNBOUNDED  # idle for the last two cycles

    def jump(self, period: int, k: int) -> None:
        pass


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


def _chunk_pattern(item_bits: int, capacity: int) -> Tuple[int, ...]:
    """Mirror of :func:`repro.network.program.chunk_pattern`."""
    item_bits = max(1, item_bits)
    if item_bits <= capacity:
        return (item_bits,)
    sizes = [capacity]
    remaining = item_bits - capacity
    while remaining > 0:
        sizes.append(min(capacity, remaining))
        remaining -= capacity
    return tuple(sizes)


def _children_lists(parents: Dict[str, Optional[str]]) -> Dict[str, List[str]]:
    """Each node's sorted children in a parent-pointer tree, in one pass."""
    children: Dict[str, List[str]] = {}
    for node, parent in parents.items():
        if parent is not None:
            children.setdefault(parent, []).append(node)
    for kids in children.values():
        kids.sort()
    return children


def _build_programs(skeleton: CostSkeleton) -> Dict[str, _Program]:
    """One count-plane program per node, mirroring the compiler's
    schedule: per participating star [scatter ∥, score, combine ∥,
    rebuild], then the final route for routing participants."""
    # Each packing tree's shape, built once: per star, node -> the trees
    # it is in, and per tree node -> its sorted children.
    shapes = []
    for star in skeleton.stars:
        trees_of: Dict[str, List[int]] = {}
        for j, parents in enumerate(star.trees):
            for node in parents:
                trees_of.setdefault(node, []).append(j)
        shapes.append(
            (star, trees_of, [_children_lists(p) for p in star.trees])
        )
    route = skeleton.route
    route_children = _children_lists(route.parents)
    programs: Dict[str, _Program] = {}
    for node in skeleton.nodes:
        items: List[_Op] = []
        for star, trees_of, tree_children in shapes:
            my_trees = trees_of.get(node)
            if not my_trees:
                continue
            sid = star.star_id
            scatter: List[_Op] = []
            combine: List[_Op] = []
            for j in my_trees:
                parent = star.trees[j].get(node)
                children = tree_children[j].get(node, ())
                is_root = parent is None
                scatter.append(
                    _Broadcast(
                        f"s{sid}:bc:t{j}", parent, children,
                        skeleton.tuple_bits,
                        star.counts[j] if is_root else None,
                    )
                )
                combine.append(
                    _Convergecast(
                        f"s{sid}:cc:t{j}", parent, children,
                        skeleton.value_bits, star.counts[j],
                    )
                )
            items.extend(
                [_Parallel(scatter), _Compute(), _Parallel(combine), _Compute()]
            )
        if node in route.parents:
            count = route.payload_counts.get(node, 0)
            pattern = _chunk_pattern(skeleton.item_bits, skeleton.capacity)
            chunks = list(pattern) * count
            items.append(
                _Route(
                    "final", route.parents.get(node),
                    route_children.get(node, ()), chunks,
                )
            )
            if node == skeleton.output_player:
                items.append(_Compute())
        programs[node] = _Program(node, items)
    return programs


def _steady_cycles(history, period, live, limit) -> int:
    """Whole ``period``-round cycles every live op can replay, at most
    ``limit``; 0 means step on.

    The last two cycles must have sent the same blocks (two silent
    rounds would already have raised the deadlock error) and every live
    op must grant a horizon; the first that declines ends the check.
    """
    for i in range(1, period + 1):
        if history[-i][0] != history[-i - period][0]:
            return 0
    k = limit
    for prog, _ctx in live:
        k = min(k, prog.current.horizon(period))
        if k < 1:
            return 0
    return k


def _materialize(cycle, k, contexts) -> None:
    """Deliver what ``k`` skipped replays of ``cycle`` sent to mailboxes.

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

    The skipped rounds deliver every cycle position ``k`` times: they
    start one position late, at the stepped round's own sends, and those
    stay ``pending`` for the round after the jump.  A steady cycle
    carries only ``it`` and ``slot`` blocks (headers, EOS and routed
    chunks are one-offs), which their readers sum, so one entry per
    stream and cycle position stands for all ``k``.
    """
    for sends, _edge_bits in cycle:
        for src, dst, tag, kind, _bits, count, _meta in sends:
            ctx = contexts.get(dst)
            queue = ctx.queues.get((tag, src)) if ctx is not None else None
            if queue:
                queue.append((kind, k * count, None))


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

    Steady streaming is not stepped.  When the last two cycles of
    ``period`` 1 or 2 rounds sent the same blocks and held no program
    transition and no one-off round (see :class:`_Ctx`), all live ops
    replay the cycle ``k`` times arithmetically — ``k`` being the
    smallest :meth:`_Op.horizon`, capped so ``max_rounds`` is still
    enforced by a stepped round — and the streams no current op reads
    are delivered to their mailboxes (:func:`_materialize`).  Only
    counters advance, so ``max_edge_bits_per_round`` cannot change.  A
    streaming route makes every round a one-off, so routed payload is
    still stepped.
    """
    programs = _build_programs(skeleton)
    contexts = {n: _Ctx(n, skeleton.capacity) for n in skeleton.nodes}
    # The running programs in step order (sorted by node), with their
    # contexts; rebuilt only in a round in which a program finished.
    live = [
        (programs[n], contexts[n])
        for n in sorted(programs) if not programs[n].done
    ]

    pending: List[Tuple[str, str, str, str, int, int, object]] = []
    total_bits = 0
    last_send_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0
    # The last four rounds' (sends, per-link bits), and the last round
    # that cannot be part of a steady cycle: a program moved to its next
    # op or finished, or an op flagged a one-off.
    history: deque = deque(maxlen=4)
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
        for src, dst, tag, kind, _bits, count, meta in pending:
            prog = programs.get(dst)
            if prog is not None and not prog.done:
                contexts[dst].inbox((tag, src)).append((kind, count, meta))

        round_sends: List[Tuple[str, str, str, str, int, int, object]] = []
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
            for src, dst, _tag, _kind, bits, _count, _meta in round_sends:
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
        for period in (1, 2):
            if round_no - last_change_round < 2 * period:
                break
            k = _steady_cycles(
                history, period, live, (max_rounds - round_no) // period
            )
            if k:
                for prog, _ctx in live:
                    prog.current.jump(period, k)
                cycle = [history[-i] for i in range(1, period + 1)]
                _materialize(cycle, k, contexts)
                for _sends, edge_bits in cycle:
                    for link, bits in edge_bits.items():
                        total_bits += k * bits
                        bits_per_edge[link] += k * bits
                round_no += k * period
                # Logged deltas predate the jump: two freshly stepped
                # cycles come before the next one.
                last_send_round = last_change_round = round_no
                jumped_rounds += k * period
                break

    COUNTERS.increment("costmodel.rounds", last_send_round)
    COUNTERS.increment("costmodel.fast_forward_rounds", jumped_rounds)
    return CostVector(
        rounds=last_send_round,
        total_bits=total_bits,
        max_edge_bits_per_round=max_edge_bits_per_round,
        bits_per_edge=bits_per_edge,
    )
