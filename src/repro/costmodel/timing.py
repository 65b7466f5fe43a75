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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..network.program import EOS_BITS, HEADER_BITS
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
    """Count-plane ProgramContext: per-round room + next-round delivery."""

    __slots__ = ("node", "capacity", "queues", "sent", "outbox")

    def __init__(self, node: str, capacity: int) -> None:
        self.node = node
        self.capacity = capacity
        self.queues: Dict[Tuple[str, str], deque] = {}
        self.sent: Dict[str, int] = {}
        self.outbox: List[Tuple[str, str, str, str, int, int, object]] = []

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

    def pop(self, tag: str, src: str) -> List:
        queue = self.queues.get((tag, src))
        if not queue:
            return []
        out = list(queue)
        queue.clear()
        return out


class _Op:
    def start(self, ctx: _Ctx) -> None:
        pass

    def step(self, ctx: _Ctx) -> bool:
        raise NotImplementedError


class _Compute(_Op):
    """Free local computation: completes in place (Model 2.1)."""

    def step(self, ctx: _Ctx) -> bool:
        return True


class _Parallel(_Op):
    """Members stepped in input order each round, sharing capacity."""

    def __init__(self, members: List[_Op]) -> None:
        self.members = members
        self.done_flags = [False] * len(members)

    def start(self, ctx: _Ctx) -> None:
        for member in self.members:
            member.start(ctx)

    def step(self, ctx: _Ctx) -> bool:
        for i, member in enumerate(self.members):
            if not self.done_flags[i]:
                self.done_flags[i] = member.step(ctx)
        return all(self.done_flags)


class _Broadcast(_Op):
    """Mirror of BroadcastOp.step: header first (chunked, count in the
    first chunk), then items at ``per_item`` bits, budget per child."""

    def __init__(self, tag, parent, children, per_item, root_count=None):
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_item = max(1, per_item)
        self.root_count = root_count
        self.count: Optional[int] = None
        self.received = 0
        self.header_left = {c: HEADER_BITS for c in self.children}
        self.header_started: set = set()
        self.forwarded = {c: 0 for c in self.children}

    def start(self, ctx: _Ctx) -> None:
        if self.parent is None:
            self.count = int(self.root_count or 0)
            self.received = self.count

    def step(self, ctx: _Ctx) -> bool:
        if self.parent is not None:
            for blk in ctx.pop(self.tag, self.parent):
                kind, count, meta = blk
                if kind == "hdr":
                    self.count = meta
                elif kind == "it":
                    self.received += count
        for child in self.children:
            if self.count is None:
                continue
            while self.header_left[child] > 0:
                room = ctx.room(child)
                if room < 1:
                    break
                take = min(room, self.header_left[child])
                if child not in self.header_started:
                    ctx.send(child, self.tag, "hdr", take, meta=self.count)
                    self.header_started.add(child)
                else:
                    ctx.send(child, self.tag, "hdrc", take)
                self.header_left[child] -= take
        for child in self.children:
            if self.header_left[child] > 0:
                continue
            k = min(
                self.received - self.forwarded[child],
                ctx.room(child) // self.per_item,
            )
            if k > 0:
                ctx.send(child, self.tag, "it", k * self.per_item, count=k)
                self.forwarded[child] += k
        return (
            self.count is not None
            and self.received == self.count
            and all(b == 0 for b in self.header_left.values())
            and all(self.forwarded[c] == self.count for c in self.children)
        )


class _Convergecast(_Op):
    """Mirror of ConvergecastOp.step: slot i moves up once every child
    delivered slot i, at most ``room // per_slot`` per round."""

    def __init__(self, tag, parent, children, per_slot, num_slots):
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_slot = max(1, per_slot)
        self.num_slots = int(num_slots)
        self.out_idx = 0
        self.buffered = {c: 0 for c in self.children}

    def step(self, ctx: _Ctx) -> bool:
        for child in self.children:
            for blk in ctx.pop(self.tag, child):
                _kind, count, _meta = blk
                self.buffered[child] += count
        if self.children:
            avail = min(self.buffered[c] for c in self.children)
        else:
            avail = self.num_slots
        k = min(self.num_slots, avail) - self.out_idx
        if self.parent is not None and k > 0:
            k = min(k, ctx.room(self.parent) // self.per_slot)
            if k > 0:
                ctx.send(self.parent, self.tag, "slot",
                         k * self.per_slot, count=k)
        k = max(0, k)
        self.out_idx += k
        return self.out_idx >= self.num_slots


class _Route(_Op):
    """Mirror of RouteOp.step: greedy store-and-forward of chunk sizes
    toward the sink, then the 1-bit EOS handshake."""

    def __init__(self, tag, parent, children, chunks: List[int]):
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.queue: deque = deque(chunks)
        self.eos_pending = set(self.children)
        self.eos_sent = False

    def step(self, ctx: _Ctx) -> bool:
        for child in self.children:
            for blk in ctx.pop(self.tag, child):
                kind, _count, meta = blk
                if kind == "eos":
                    self.eos_pending.discard(child)
                else:  # "run": meta is the chunk-size tuple
                    self.queue.extend(meta)
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


class _Program:
    """Mirror of NodeProgram: ops in order, same-round chaining."""

    def __init__(self, node: str, items: List[_Op]) -> None:
        self.node = node
        self.items = items
        self.index = 0
        self.started = False

    @property
    def done(self) -> bool:
        return self.index >= len(self.items)

    def step_round(self, ctx: _Ctx) -> bool:
        moved = False
        while self.index < len(self.items):
            op = self.items[self.index]
            if not self.started:
                op.start(ctx)
                self.started = True
            if not op.step(ctx):
                return moved
            self.index += 1
            self.started = False
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


def _build_programs(skeleton: CostSkeleton) -> Dict[str, _Program]:
    """One count-plane program per node, mirroring the compiler's
    schedule: per participating star [scatter ∥, score, combine ∥,
    rebuild], then the final route for routing participants."""
    programs: Dict[str, _Program] = {}
    for node in skeleton.nodes:
        items: List[_Op] = []
        for star in skeleton.stars:
            my_trees = star.trees_of(node)
            if not my_trees:
                continue
            sid = star.star_id
            scatter: List[_Op] = []
            combine: List[_Op] = []
            for j in my_trees:
                parents = star.trees[j]
                parent = parents.get(node)
                children = sorted(n for n, p in parents.items() if p == node)
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
        route = skeleton.route
        if node in route.parents:
            count = route.payload_counts.get(node, 0)
            pattern = _chunk_pattern(skeleton.item_bits, skeleton.capacity)
            chunks = list(pattern) * count
            items.append(
                _Route(
                    "final", route.parents.get(node),
                    route.children_of(node), chunks,
                )
            )
            if node == skeleton.output_player:
                items.append(_Compute())
        programs[node] = _Program(node, items)
    return programs


def evaluate_timing(
    skeleton: CostSkeleton, max_rounds: int = 1_000_000
) -> CostVector:
    """Run the timing recurrence ρ to completion — the exact oracle.

    Implements the engines' round loop: blocks sent in round ``t`` are
    delivered in ``t + 1``; ``rounds`` is the last round with any send;
    deliveries to finished programs are dropped.  Raises
    :class:`CostModelError` on deadlock or round overrun, which can only
    mean a model bug (the engines themselves would have deadlocked too).
    """
    programs = _build_programs(skeleton)
    contexts = {n: _Ctx(n, skeleton.capacity) for n in skeleton.nodes}
    live = deque(sorted(n for n, p in programs.items() if not p.done))

    pending: List[Tuple[str, str, str, str, int, int, object]] = []
    total_bits = 0
    last_send_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0

    round_no = 0
    while True:
        round_no += 1
        if round_no > max_rounds:
            raise CostModelError(
                f"cost model exceeded max_rounds={max_rounds} "
                f"(live nodes: {sorted(live)})"
            )
        had_pending = bool(pending)
        for src, dst, tag, kind, _bits, count, meta in pending:
            if dst in contexts and not programs[dst].done:
                contexts[dst].queues.setdefault((tag, src), deque()).append(
                    (kind, count, meta)
                )
        pending = []

        round_sends: List[Tuple[str, str, str, str, int, int, object]] = []
        round_edge_bits: Dict[Tuple[str, str], int] = {}
        finished_any = False
        moved_any = False
        for node in list(live):
            ctx = contexts[node]
            ctx.sent = {}
            prog = programs[node]
            moved_any = prog.step_round(ctx) or moved_any
            round_sends.extend(ctx.outbox)
            ctx.outbox = []
            if prog.done:
                live.remove(node)
                finished_any = True

        if round_sends:
            last_send_round = round_no
            for src, dst, _tag, _kind, bits, _count, _meta in round_sends:
                total_bits += bits
                link = (src, dst)
                bits_per_edge[link] = bits_per_edge.get(link, 0) + bits
                round_edge_bits[link] = round_edge_bits.get(link, 0) + bits
            busiest = max(round_edge_bits.values())
            if busiest > max_edge_bits_per_round:
                max_edge_bits_per_round = busiest

        if not live and not round_sends:
            break
        if live and not round_sends and not had_pending and not finished_any \
                and not moved_any:
            raise CostModelError(
                f"cost model deadlocked at round {round_no} "
                f"(live nodes: {sorted(live)})"
            )
        pending = round_sends

    return CostVector(
        rounds=last_send_round,
        total_bits=total_bits,
        max_edge_bits_per_round=max_edge_bits_per_round,
        bits_per_edge=bits_per_edge,
    )
