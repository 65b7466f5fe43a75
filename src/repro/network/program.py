"""Compiled round programs — the block-granular protocol engine.

The generator engine (:meth:`repro.network.simulator.Simulator.run`) steps
one Python generator per node per round and ships every tuple as its own
:class:`~repro.network.simulator.Message`.  This module is the *compiled*
alternative: the control plane expresses a protocol as one
:class:`NodeProgram` per node — a static schedule of typed ops
(:class:`BroadcastOp`, :class:`ConvergecastOp`, :class:`RouteOp`,
:class:`ComputeStep`) with precompiled trees, tags and roles — and the
data plane moves :class:`BlockMessage` descriptors that cover a whole
round's worth of items per edge in one Python object, with payload rows
living in shared columnar :class:`~repro.semiring.columnar.WireBlock`
buffers (capacity enforcement is integer arithmetic plus array slicing,
never per-tuple work).

The engine is **accounting-exact** with respect to the generator engine:
each op's per-round decisions replicate the corresponding generator
primitive in :mod:`repro.protocols.primitives` (same header chunking,
same per-round item counts, same EOS handshake), so round counts, total
bits, per-edge bits and message counts come out identical.  On top of
that, :func:`run_program` *fast-forwards* steady streaming states: when
the per-round send signature settles into a cycle (period 1 or 2) and
every live op can bound how long its behaviour replays, the engine jumps
whole cycles at once — thousands of pipeline rounds cost O(1) Python
instead of O(rounds).  A jump attempt asks the live ops for their
horizons in step order and gives up at the first that declines, so
:meth:`ProgramOp.cycle_horizon` must be side-effect free.

A round is charged one way, on plain Python ints, like the generator
engine charges its own: the round's blocks fold into one ``{(src, dst):
bits}`` dict in send order, every link of it is audited against ``B``
(:class:`~repro.network.simulator.CapacityExceeded`), and the dict is
added to the insertion-ordered ``bits_per_edge``.  A jump adds the
cycle's stored per-round dicts ``k`` times.  ``edge_bits`` is folded
from ``bits_per_edge`` once, after the last round, in the same
first-seen order.  Nothing here is an array: this package imports
neither ``numpy`` nor :mod:`repro.kernels` (``tests/test_layering.py``).

Self-timing is preserved exactly: ops are started lazily, a finished op
hands the round over to the next op of the same node (mirroring how a
``yield from`` chain resumes), and early-arriving blocks wait in
per-(tag, src) queues just like the generator engine's ``Mailbox`` — a
jump appends what the skipped rounds would have queued there, so
overlapping phases (the next star's scatter reaching a node still busy
in this one) are jumped through, not stepped.  An op resolves its input
queues once, when it starts, and drains them in place.
"""

from __future__ import annotations

from collections import deque
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

#: "Unbounded" cycle horizon — the engine takes a min over ops, so any
#: op without its own bound returns this.
UNBOUNDED = 10 ** 15


class BlockMessage:
    """One block on the wire: a round's worth of one stream's traffic.

    Attributes:
        src/dst: Directed edge the block traverses.
        tag: Stream tag (same namespace as the generator engine).
        kind: ``"hdr"``/``"hdrc"`` (count header and its filler chunks),
            ``"it"`` (broadcast items), ``"slot"`` (convergecast slots),
            ``"run"`` (routing chunk run), ``"eos"`` (end of stream).
        bits: Total bits charged against the edge for this block.
        count: Logical payload units covered (items/slots/chunks).
        messages: Generator-engine message equivalents (for
            ``total_messages`` parity).
        meta: Kind-specific data — the announced count for ``"hdr"``,
            the exact chunk-size tuple for ``"run"``.
    """

    __slots__ = ("src", "dst", "tag", "kind", "bits", "count", "messages", "meta")

    def __init__(self, src, dst, tag, kind, bits, count, messages, meta=None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.kind = kind
        self.bits = bits
        self.count = count
        self.messages = messages
        self.meta = meta

    def signature(self) -> Tuple:
        """The per-round cycle-detection key (payload-free)."""
        return (self.src, self.dst, self.tag, self.kind, self.bits,
                self.count, self.meta)


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
        self,
        dst: str,
        tag: str,
        kind: str,
        bits: int,
        count: int = 1,
        messages: Optional[int] = None,
        meta=None,
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
        self._outbox.append(
            BlockMessage(self.node, dst, tag, kind, bits, count,
                         count if messages is None else messages, meta)
        )

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

    def cycle_horizon(self, p: int) -> int:
        """How many *additional* p-round cycles replay identically.

        Called only after the engine has observed two identical
        consecutive p-round send cycles.  Returning 0 declines the
        fast-forward; any positive k asserts that, with the last cycle's
        arrivals repeating, this op's next ``k`` cycles consume and send
        exactly the same blocks and cross no internal boundary.

        Must be side-effect free: the engine stops asking at the first
        op that declines, so whether an op is asked at all depends on
        the ops stepped before it (``tests/test_program.py`` pins this).
        """
        return 0

    def advance(self, p: int, k: int) -> None:
        """Apply ``k`` replays of the last ``p`` rounds' state deltas."""

    def describe(self) -> str:
        return self.label

    # -- shared history helpers ----------------------------------------
    # Ops that use them append one record per step to ``self._hist``, a
    # ``deque(maxlen=8)`` made in ``__init__``.
    def _cycle_stable(self, p: int) -> bool:
        """Did the op's own last two p-round cycles behave identically?"""
        hist = self._hist
        if len(hist) < 2 * p:
            return False
        return all(hist[-i] == hist[-i - p] for i in range(1, p + 1))

    def _cycle_records(self, p: int) -> List[Tuple]:
        """The last ``p`` records, oldest first."""
        hist = self._hist
        return [hist[i] for i in range(-p, 0)]


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

    def cycle_horizon(self, p: int) -> int:
        # A member that completed within the candidate cycle window put
        # its *final* sends into the recorded signature; replaying the
        # cycle would charge those sends again with no op state behind
        # them.  The group's completion is invisible to the scheduler
        # (the program index does not move), so decline the jump here.
        if self._last_finish is not None and self._steps - self._last_finish < p:
            return 0
        k = UNBOUNDED
        for member in self._live:
            horizon = member.cycle_horizon(p)
            if horizon < 1:
                return 0
            if horizon < k:
                k = horizon
        return k

    def advance(self, p: int, k: int) -> None:
        for member in self._live:
            member.advance(p, k)

    def describe(self) -> str:
        live = [member.describe() for member in self._live]
        return f"{self.label}({', '.join(live)})"


class BroadcastOp(ProgramOp):
    """One node's role in a pipelined tree broadcast, block-granular.

    Mirrors :func:`repro.protocols.primitives.broadcast_node` round for
    round: the count header travels first (chunked to the capacity on
    thin edges, value in the first chunk, accounted filler after), then
    items stream at ``per_item`` bits each, as many per round per child
    as the remaining budget allows — sent as a single block.

    Only counts move here; item *content* is a shared
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
        self.received = 0
        self.header_left = {c: HEADER_BITS for c in self.children}
        self.header_started: set = set()
        #: Every child's header fully sent (a streaming round skips the
        #: header loop).
        self.headers_done = not self.children
        self.forwarded = {c: 0 for c in self.children}
        self.label = f"broadcast:{tag}"
        self._stream = (tag, parent)
        self._inbox: Optional[deque] = None
        self._no_sends = (0,) * len(self.children)
        self._hist: deque = deque(maxlen=8)

    def start(self, ctx: ProgramContext) -> None:
        if self.parent is None:
            self.count = int(self.root_count_fn()) if self.root_count_fn else 0
            self.received = self.count
        else:
            self._inbox = ctx.inbox(self._stream)

    def step(self, ctx: ProgramContext) -> bool:
        arrived = 0
        inbox = self._inbox
        if inbox:
            for blk in inbox:
                if blk.kind == "it":
                    arrived += blk.count
                elif blk.kind == "hdr":
                    self.count = blk.meta
                # "hdrc" filler is accounting-only.
            inbox.clear()
            self.received += arrived
        count = self.count
        if count is None:
            # Dormant until the header arrives: nothing can be sent.
            self._hist.append((arrived, self._no_sends, False, True))
            return False
        header_activity = False
        if not self.headers_done:
            header_left = self.header_left
            for child in self.children:
                while header_left[child] > 0:
                    room = ctx.room(child)
                    if room < 1:
                        break
                    take = min(room, header_left[child])
                    if child not in self.header_started:
                        ctx.send_block(child, self.tag, "hdr", take, count=1,
                                       meta=count)
                        self.header_started.add(child)
                    else:
                        ctx.send_block(child, self.tag, "hdrc", take, count=1)
                    header_left[child] -= take
                    header_activity = True
            self.headers_done = not any(header_left.values())
        headers_done = self.headers_done
        complete = headers_done and self.received == count
        forwarded = self.forwarded
        sends = []
        for child in self.children:
            if not headers_done and self.header_left[child] > 0:
                sends.append(0)
                continue
            k = min(
                self.received - forwarded[child],
                ctx.room(child) // self.per_item,
            )
            if k > 0:
                ctx.send_block(child, self.tag, "it", k * self.per_item,
                               count=k)
                forwarded[child] += k
            sends.append(k)
            if forwarded[child] != count:
                complete = False
        self._hist.append((arrived, tuple(sends), header_activity, False))
        return complete

    def cycle_horizon(self, p: int) -> int:
        if not self._cycle_stable(p):
            return 0
        recs = self._cycle_records(p)
        if any(rec[2] for rec in recs):  # header still moving: transient
            return 0
        arrived = sum(rec[0] for rec in recs)
        sends = [sum(rec[1][i] for rec in recs)
                 for i in range(len(self.children))]
        if self.count is None:
            # Nothing can have arrived or been sent; fully dormant.
            return UNBOUNDED if arrived == 0 and not any(sends) else 0
        if any(self.header_left.values()):
            return 0
        k = UNBOUNDED
        if arrived > 0:
            k = min(k, (self.count - self.received) // arrived - 1)
        for child, s in zip(self.children, sends):
            if s > 0:
                k = min(k, (self.count - self.forwarded[child]) // s - 1)
                drain = arrived - s
                if drain < 0:
                    backlog = self.received - self.forwarded[child]
                    k = min(k, backlog // (-drain) - 1)
        if arrived == 0 and not any(sends):
            return UNBOUNDED
        return max(0, k)

    def advance(self, p: int, k: int) -> None:
        recs = self._cycle_records(p)
        self.received += k * sum(rec[0] for rec in recs)
        for i, child in enumerate(self.children):
            self.forwarded[child] += k * sum(rec[1][i] for rec in recs)


class ConvergecastOp(ProgramOp):
    """One node's role in a pipelined slot convergecast, count-based.

    Mirrors :func:`repro.protocols.primitives.convergecast_node`: slot
    ``i`` moves to the parent once every child has delivered its slot
    ``i``, at most ``capacity // bits_per_slot`` slots per round.  The
    combined *values* never ride these blocks: they are a timing-free
    fold over the tree's contributions, computed once by the protocol
    compiler when the root completes (in the exact association order the
    generator engine uses, so even float semirings agree bit for bit).

    ``num_slots`` is configured at runtime (by the scatter phase that
    learned the counts) before the op starts.
    """

    def __init__(
        self,
        tag: str,
        parent: Optional[str],
        children: Sequence[str],
        per_slot: int,
    ) -> None:
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.per_slot = max(1, per_slot)
        self.num_slots: Optional[int] = None
        self.out_idx = 0
        self.buffered = {c: 0 for c in self.children}
        self.label = f"convergecast:{tag}"
        self._streams = [(tag, child) for child in self.children]
        self._inboxes: List[deque] = []
        self._no_arrivals = (0,) * len(self.children)
        self._hist: deque = deque(maxlen=8)

    def configure(self, num_slots: int) -> None:
        self.num_slots = int(num_slots)

    def start(self, ctx: ProgramContext) -> None:
        self._inboxes = [ctx.inbox(stream) for stream in self._streams]

    def step(self, ctx: ProgramContext) -> bool:
        num_slots = self.num_slots
        if num_slots is None:
            raise SimulationError(
                f"{self.label}: stepped before configure() — the compiler "
                "must set num_slots when the scatter phase completes"
            )
        buffered = self.buffered
        arrivals = self._no_arrivals
        if any(self._inboxes):
            counts = []
            for child, inbox in zip(self.children, self._inboxes):
                got = 0
                if inbox:
                    for blk in inbox:
                        got += blk.count
                    inbox.clear()
                    buffered[child] += got
                counts.append(got)
            arrivals = tuple(counts)
        avail = min(buffered.values()) if buffered else num_slots
        k = min(num_slots, avail) - self.out_idx
        if k > 0 and self.parent is not None:
            k = min(k, ctx.room(self.parent) // self.per_slot)
            if k > 0:
                ctx.send_block(self.parent, self.tag, "slot",
                               k * self.per_slot, count=k)
        if k > 0:
            self.out_idx += k
        else:
            k = 0
        self._hist.append((arrivals, k))
        return self.out_idx >= num_slots

    def cycle_horizon(self, p: int) -> int:
        if not self._cycle_stable(p):
            return 0
        recs = self._cycle_records(p)
        arrivals = [sum(rec[0][i] for rec in recs)
                    for i in range(len(self.children))]
        moved = sum(rec[1] for rec in recs)
        if moved == 0 and not any(arrivals):
            return UNBOUNDED
        k = UNBOUNDED
        if moved > 0:
            k = min(k, (self.num_slots - self.out_idx) // moved - 1)
        for child, a in zip(self.children, arrivals):
            drain = a - moved
            if drain < 0:
                slack = self.buffered[child] - self.out_idx
                k = min(k, slack // (-drain) - 1)
        return max(0, k)

    def advance(self, p: int, k: int) -> None:
        recs = self._cycle_records(p)
        for i, child in enumerate(self.children):
            self.buffered[child] += k * sum(rec[0][i] for rec in recs)
        self.out_idx += k * sum(rec[1] for rec in recs)


class _Run:
    """A run of routing chunks: ``pattern`` repeated ``reps`` times."""

    __slots__ = ("pattern", "reps", "pos")

    def __init__(self, pattern: Tuple[int, ...], reps: int, pos: int = 0) -> None:
        self.pattern = pattern
        self.reps = reps
        self.pos = pos  # chunks of the first repetition already consumed


class RouteOp(ProgramOp):
    """One node's role in store-and-forward routing toward a sink.

    Mirrors :func:`repro.protocols.primitives.route_to_sink_node` chunk
    for chunk: forward as many queued chunks as the round budget allows,
    then the 1-bit EOS handshake once the queue is drained and every
    child has signalled.  The queue holds only chunk *sizes* — packet
    payloads are routed out of band by the protocol compiler (the
    collected multiset at the sink is timing-independent), split into a
    compact run-encoded static part (this node's own packets, typically
    one uniform item pattern) and a dynamic deque of arrived chunk
    sizes.  That split is what makes the fast-forward horizons exact:
    origins replay whole pattern repetitions, relays replay while the
    queue is a fixed point of (consume cycle, append cycle).
    """

    def __init__(
        self,
        tag: str,
        parent: Optional[str],
        children: Sequence[str],
        packets_fn: Optional[Callable[[], List[Tuple[Tuple[int, ...], int]]]] = None,
    ) -> None:
        self.tag = tag
        self.parent = parent
        self.children = list(children)
        self.packets_fn = packets_fn
        self.static: deque = deque()
        self.dynamic: deque = deque()
        self.eos_pending = set(self.children)
        self.eos_sent = False
        self.label = f"route:{tag}"
        self._streams = [(tag, child) for child in self.children]
        self._inboxes: List[deque] = []
        self._hist: deque = deque(maxlen=8)

    def start(self, ctx: ProgramContext) -> None:
        self._inboxes = [ctx.inbox(stream) for stream in self._streams]
        if self.packets_fn is None:
            return
        for pattern, reps in self.packets_fn():
            pattern = tuple(pattern)
            if not pattern or reps <= 0:
                continue
            if self.static and self.static[-1].pattern == pattern:
                self.static[-1].reps += reps
            else:
                self.static.append(_Run(pattern, reps))

    # -- queue helpers --------------------------------------------------
    def _pop_chunk(self) -> Optional[int]:
        """Peek-and-consume the next queued chunk size, or None if empty."""
        if self.static:
            run = self.static[0]
            size = run.pattern[run.pos]
            return size
        if self.dynamic:
            return self.dynamic[0]
        return None

    def _consume_chunk(self) -> None:
        if self.static:
            run = self.static[0]
            run.pos += 1
            if run.pos == len(run.pattern):
                run.pos = 0
                run.reps -= 1
                if run.reps == 0:
                    self.static.popleft()
            return
        self.dynamic.popleft()

    def _queue_empty(self) -> bool:
        return not self.static and not self.dynamic

    def step(self, ctx: ProgramContext) -> bool:
        arrived: List[int] = []
        eos_events = 0
        for child, inbox in zip(self.children, self._inboxes):
            if not inbox:
                continue
            for blk in inbox:
                if blk.kind == "eos":
                    self.eos_pending.discard(child)
                    eos_events += 1
                else:  # "run": meta is the exact chunk-size tuple
                    arrived.extend(blk.meta)
                    self.dynamic.extend(blk.meta)
            inbox.clear()
        if self.parent is None:
            # Sink: consume everything as it arrives (content is routed
            # out of band; see the compiler's FinalRuntime).
            self.static.clear()
            self.dynamic.clear()
            self._hist.append((tuple(arrived), (), eos_events, None))
            return not self.eos_pending
        sent: List[int] = []
        room = ctx.room(self.parent)
        while True:
            size = self._pop_chunk()
            if size is None or room < size:
                break
            # Track the budget per chunk so partial-capacity rounds match
            # the generator exactly; coalesce into one wire block below.
            self._consume_chunk()
            room -= size
            sent.append(size)
        if sent:
            ctx.send_block(self.parent, self.tag, "run", sum(sent),
                           count=len(sent), meta=tuple(sent))
        if (
            self._queue_empty()
            and not self.eos_pending
            and not self.eos_sent
            and ctx.room(self.parent) >= EOS_BITS
        ):
            ctx.send_block(self.parent, self.tag, "eos", EOS_BITS, count=1)
            self.eos_sent = True
        front = self.static[0] if self.static else None
        self._hist.append((
            tuple(arrived),
            tuple(sent),
            eos_events,
            (front.pattern, front.pos) if front is not None else None,
        ))
        return self.eos_sent

    def cycle_horizon(self, p: int) -> int:
        if not self._cycle_stable(p):
            return 0
        recs = self._cycle_records(p)
        if any(rec[2] for rec in recs):  # EOS transitions are one-offs
            return 0
        cyc_arrived: List[int] = []
        cyc_sent: List[int] = []
        for rec in recs:
            cyc_arrived.extend(rec[0])
            cyc_sent.extend(rec[1])
        if self.parent is None:
            # Sink: unconditionally consumes; nothing else can change.
            return UNBOUNDED
        if not cyc_arrived and not cyc_sent:
            return UNBOUNDED
        if self.static and not self.dynamic and not cyc_arrived:
            # Origin regime: consuming own pattern-run packets only.
            front = self.static[0]
            pattern_len = len(front.pattern)
            if not cyc_sent or len(cyc_sent) % pattern_len != 0:
                return 0
            reps_per_cycle = len(cyc_sent) // pattern_len
            remaining = front.reps  # pos is cycle-stable via the record
            return max(0, remaining // reps_per_cycle - 1)
        if not self.static:
            # Relay regime: the queue must be a fixed point of one cycle
            # (consume the cycle's sends from the front, append the
            # cycle's arrivals at the back).
            consumed = len(cyc_sent)
            queue = list(self.dynamic)
            if consumed > len(queue):
                return 0
            if queue[consumed:] + cyc_arrived == queue:
                return UNBOUNDED
            return 0
        return 0

    def advance(self, p: int, k: int) -> None:
        recs = self._cycle_records(p)
        if self.parent is None:
            return
        cyc_sent = sum(len(rec[1]) for rec in recs)
        cyc_arrived = sum(len(rec[0]) for rec in recs)
        if self.static and not cyc_arrived:
            front = self.static[0]
            front.reps -= k * (cyc_sent // len(front.pattern))
            if front.reps == 0 and front.pos == 0:
                self.static.popleft()
            return
        # Relay fixed point: the queue is unchanged by construction.

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
        moved = False
        while self.index < len(self.items):
            op = self.items[self.index]
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


def _repeat_blocks(blocks: List[BlockMessage], k: int) -> BlockMessage:
    """One block standing for ``k`` in-order repeats of ``blocks``.

    ``blocks`` are one stream's sends over one steady cycle.  Headers
    and EOS markers are sent once, so such a stream carries only
    ``"it"``/``"slot"`` blocks, whose consumers sum counts, or ``"run"``
    blocks, whose consumer concatenates the chunk sizes in order.
    """
    first = blocks[0]
    meta = None
    if first.kind == "run":
        meta = tuple(size for blk in blocks for size in blk.meta) * k
    return BlockMessage(
        first.src, first.dst, first.tag, first.kind,
        k * sum(blk.bits for blk in blocks),
        k * sum(blk.count for blk in blocks),
        k * sum(blk.messages for blk in blocks),
        meta,
    )


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
    the last round with any send; ``total_bits``/``edge_bits``/
    ``bits_per_edge``/``total_messages`` equal what the generator engine
    would have charged message by message.

    Steady streaming states are fast-forwarded: once the per-round send
    signature repeats with period 1 or 2 and every live op bounds its
    replay horizon, whole cycles are applied arithmetically — op state,
    accounting, and the mailbox queues of streams that are buffering for
    a later op of their receiver.  The jump changes wall-clock only —
    the resulting accounting is identical to stepping every round
    (``fast_forward=False`` steps every round and must produce
    byte-identical results; tests assert this).

    With a live ``tracer``, every round boundary, block send, compute
    step and fast-forward jump is emitted as a typed event; the jump
    event carries the cycle's send signatures so replaying the trace
    reproduces the accounting exactly (:mod:`repro.obs.verify`).

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
    contexts = {
        node: ProgramContext(node, topology, capacity_bits)
        for node in programs
    }
    if tracer is not None:
        tracer.run_start("compiled", capacity_bits, list(topology.nodes))
        for ctx in contexts.values():
            ctx.tracer = tracer
    # The running nodes in step order, with their program and context; the
    # list (and the ``alive`` set delivery tests) is rebuilt only in a
    # round in which some node finished.
    live = [
        (node, programs[node], contexts[node])
        for node in sorted(programs) if not programs[node].done
    ]
    alive = {node for node, _prog, _ctx in live}
    outputs: Dict[str, Any] = {
        node: prog.output for node, prog in programs.items() if prog.done
    }

    pending: List[BlockMessage] = []
    total_bits = 0
    total_messages = 0
    last_send_round = 0
    last_delivery_round = 0
    bits_per_edge: Dict[Tuple[str, str], int] = {}
    max_edge_bits_per_round = 0

    def charge(link_bits: Dict[Tuple[str, str], int], times: int = 1) -> None:
        """Add ``times`` repeats of one round's per-link bits to the total
        (``edge_bits`` is folded from it once, after the last round)."""
        for link, bits in link_bits.items():
            bits_per_edge[link] = bits_per_edge.get(link, 0) + times * bits

    # Fast-forward bookkeeping: (signature, bits, messages, per-link bits,
    # blocks) — the per-link dict is the round's accounting delta, replayed
    # ``k`` times by a jump; the blocks are what a jump delivers to
    # mailboxes.
    history: deque = deque(maxlen=4)

    def blocked_map() -> Dict[str, List[str]]:
        return {
            node: [f"step {prog.describe()}"] + ctx.pending_tags()
            for node, prog, ctx in live
        }

    round_no = 0
    while True:
        round_no += 1
        if tracer is not None:
            tracer.round_start(round_no)
        if round_no > max_rounds:
            blocked = blocked_map()
            raise SimulationError(
                f"exceeded max_rounds={max_rounds}; blocked nodes: "
                f"{_format_blocked(blocked)}",
                blocked=blocked,
            )
        had_pending = bool(pending)
        if had_pending:
            last_delivery_round = round_no
            for blk in pending:
                # Blocks to passive/finished nodes are dropped silently,
                # like the generator engine's message handling.
                if blk.dst in alive:
                    contexts[blk.dst].inbox((blk.tag, blk.src)).append(blk)
        pending = []

        round_sends: List[BlockMessage] = []
        finished_any = False
        moved_any = False
        for node, prog, ctx in live:
            ctx._begin_round(round_no)
            if prog.step_round(ctx):
                moved_any = True
            if ctx._outbox:
                round_sends += ctx._outbox
                ctx._outbox = []
            if prog.done:
                outputs[node] = prog.output
                finished_any = True
        if finished_any:
            live = [entry for entry in live if not entry[1].done]
            alive = {node for node, _prog, _ctx in live}

        # One round's charge, the same for every round: per-link bits in
        # send order, every link audited against B, then the totals.
        round_bits = 0
        round_msgs = 0
        round_link_bits: Dict[Tuple[str, str], int] = {}
        for blk in round_sends:
            link = (blk.src, blk.dst)
            round_link_bits[link] = round_link_bits.get(link, 0) + blk.bits
            round_bits += blk.bits
            round_msgs += blk.messages
        if round_link_bits:
            busiest = max(round_link_bits.values())
            if busiest > capacity_bits:
                src, dst = max(round_link_bits, key=round_link_bits.get)
                raise CapacityExceeded(
                    f"round {round_no}: {src}->{dst} would carry "
                    f"{busiest} bits > capacity {capacity_bits}"
                )
            charge(round_link_bits)
            last_send_round = round_no
            total_bits += round_bits
            total_messages += round_msgs
            if busiest > max_edge_bits_per_round:
                max_edge_bits_per_round = busiest
        if tracer is not None:
            for blk in round_sends:
                tracer.send(
                    round_no, blk.src, blk.dst, blk.bits, tag=blk.tag,
                    kind=blk.kind, count=blk.count, messages=blk.messages,
                )
            tracer.round_end(round_no, round_bits, round_msgs)

        if not live and not round_sends:
            break
        if live and not round_sends and not had_pending and not finished_any \
                and not moved_any:
            blocked = blocked_map()
            raise SimulationError(
                f"deadlock at round {round_no}: no node can make progress; "
                f"blocked nodes: {_format_blocked(blocked)}",
                blocked=blocked,
            )

        pending = round_sends

        if not fast_forward:
            continue
        history.append((
            tuple(blk.signature() for blk in round_sends),
            round_bits, round_msgs, round_link_bits, round_sends,
        ))
        if finished_any or moved_any:
            continue
        for period in (1, 2):
            if len(history) < 2 * period:
                continue
            if any(history[-i][0] != history[-i - period][0]
                   for i in range(1, period + 1)):
                continue
            cycle = [history[-i] for i in range(period, 0, -1)]
            if not any(c[0] for c in cycle):
                continue  # an all-idle cycle cannot be sending-steady
            # The min over every live op's horizon, given up at the first
            # op that declines (horizons are side-effect free).  No node
            # finished this round, so ``live`` is not empty here.
            k = (max_rounds - round_no) // period
            for _node, prog, _ctx in live:
                if k < 1:
                    break
                horizon = prog.current().cycle_horizon(period)
                if horizon < k:
                    k = horizon
            if k < 1:
                continue
            for _node, prog, _ctx in live:
                prog.current().advance(period, k)
            # The jump skips the deliveries of rounds t+1 .. t+k*period:
            # the sends of rounds t .. t+k*period-1, i.e. the cycle k
            # times over starting at this round's own sends (they stay
            # ``pending`` as the sends of the jump's last round).  A
            # stream the receiver's current op pops was advanced above.
            # One with blocks still queued after this round is buffering
            # for a later op of its receiver — the mailbox case — and
            # k >= 1 means no live op changes inside the jump, so it
            # buffers throughout: its skipped blocks join the queue.
            buffering: Dict[Tuple[str, str, str], List[BlockMessage]] = {}
            for c in cycle[-1:] + cycle[:-1]:
                for blk in c[4]:
                    ctx = contexts.get(blk.dst)
                    if ctx is not None and ctx.queues.get((blk.tag, blk.src)):
                        buffering.setdefault(
                            (blk.dst, blk.tag, blk.src), []).append(blk)
            for (dst, tag, src), blocks in buffering.items():
                contexts[dst].queues[(tag, src)].append(
                    _repeat_blocks(blocks, k))
            cycle_bits = sum(c[1] for c in cycle)
            cycle_msgs = sum(c[2] for c in cycle)
            total_bits += k * cycle_bits
            total_messages += k * cycle_msgs
            for c in cycle:
                charge(c[3], k)
            COUNTERS.increment("engine.fast_forward")
            COUNTERS.increment("engine.fast_forward_rounds", k * period)
            if tracer is not None:
                tracer.cycle_fast_forward(
                    start_round=round_no,
                    period=period,
                    repeats=k,
                    end_round=round_no + k * period,
                    cycle=tuple(
                        tuple(
                            (src, dst, tag, kind, bits)
                            for src, dst, tag, kind, bits, _count, _meta
                            in c[0]
                        )
                        for c in cycle
                    ),
                )
            round_no += k * period
            last_send_round = round_no
            last_delivery_round = round_no
            break

    # Each undirected edge enters ``edge_bits`` when either direction is
    # first charged: the first-seen order of ``bits_per_edge``'s keys.
    edge_bits: Dict[Tuple[str, str], int] = {}
    for (src, dst), bits in bits_per_edge.items():
        key = (dst, src) if dst < src else (src, dst)
        edge_bits[key] = edge_bits.get(key, 0) + bits

    return SimulationResult(
        rounds=last_send_round,
        total_bits=total_bits,
        total_messages=total_messages,
        outputs=outputs,
        edge_bits=edge_bits,
        bits_per_edge=bits_per_edge,
        max_edge_bits_per_round=max_edge_bits_per_round,
        max_inflight_round=last_delivery_round,
    )


def chunk_pattern(item_bits: int, capacity: int) -> Tuple[int, ...]:
    """The chunk-size pattern of one routed item of ``item_bits`` bits.

    Mirrors :func:`repro.protocols.primitives.chunk_packets` for a single
    payload: a head chunk of at most ``capacity`` bits followed by
    capacity-sized continuation filler, the last one partial.
    """
    item_bits = max(1, item_bits)
    if item_bits <= capacity:
        return (item_bits,)
    sizes = [capacity]
    remaining = item_bits - capacity
    while remaining > 0:
        sizes.append(min(capacity, remaining))
        remaining -= capacity
    return tuple(sizes)
