"""Pipelined communication primitives for Model 2.1 protocols.

Every paper protocol decomposes into three reusable patterns:

* **broadcast** — a root pipelines a list of items down a spanning tree
  (Algorithm 1 step 3: "the player containing R broadcasts it");
* **convergecast** — slot-indexed values are combined bottom-up along a
  (Steiner) tree with a commutative operator (the engine of the
  Theorem 3.11 set-intersection protocol and of Algorithm 3's ⊗ of
  annotated messages, footnote 24);
* **routing** — store-and-forward of packets toward a sink over a BFS
  tree (the trivial protocol of Lemma 3.1 realizing τ_MCF).

All primitives are *self-timed*: counts travel in headers, so no global
barrier is ever needed and phases of different protocol steps can coexist,
disambiguated by message tags.

Streams frame **bits**, not items: every round a sender puts
``min(bits it can send, room left on the edge)`` bits of a stream on the
link as one message (a *frame*), so an item may straddle rounds, and the
receiver takes an item in the round its last bit lands.  A broadcast's
count header is the stream's first ``HEADER_BITS`` bits; a route's 1-bit
EOS follows in the round its queue empties, if the edge has room left.
The wire format is written out in ``docs/protocols.md``.

These generators are the **reference semantics**: the compiled ops of
:mod:`repro.network.program` (``BroadcastOp`` / ``ConvergecastOp`` /
``RouteOp`` / ``ParallelOps``) and the count plane of
:mod:`repro.costmodel.timing` each reimplement the same per-round
decisions independently, and must agree with these bit for bit (the
engine-parity tests in ``tests/test_program.py``, the cost-model gate and
``tests/test_framing.py`` catch a drift).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..network.program import EOS_BITS, HEADER_BITS
from ..network.simulator import NodeContext


class Mailbox:
    """Per-node message buffer keyed by (tag, src).

    Generators from different protocol phases share one mailbox so that a
    message arriving "early" (while the node is still finishing a previous
    phase) is never lost.  Ingestion is idempotent per round.
    """

    def __init__(self) -> None:
        self._queues: Dict[Tuple[str, str], deque] = {}
        self._last_round = -1

    def ingest(self, ctx: NodeContext) -> None:
        """Pull this round's inbox into the buffer (at most once per round)."""
        if ctx.round == self._last_round:
            return
        self._last_round = ctx.round
        for msg in ctx.inbox:
            self._queues.setdefault((msg.tag, msg.src), deque()).append(msg)

    def pop(self, tag: str, src: str) -> List[Any]:
        """Drain and return payloads for one (tag, src) stream, in order."""
        queue = self._queues.get((tag, src))
        if not queue:
            return []
        out = [m.payload for m in queue]
        queue.clear()
        return out


def _ended(position: int, offset: int, width: int) -> int:
    """How many ``width``-bit items of a stream that starts them at bit
    ``offset`` have their last bit within the first ``position`` bits."""
    return max(0, (position - offset) // width)


def broadcast_node(
    ctx: NodeContext,
    mail: Mailbox,
    parent: Optional[str],
    children: Sequence[str],
    items: Optional[Sequence[Any]],
    bits_per_item: int,
    tag: str,
) -> Generator[None, None, List[Any]]:
    """One node's role in a pipelined tree broadcast.

    The root (``parent is None``) supplies ``items``; every other node
    receives them from its parent.  The stream is ``HEADER_BITS`` of
    count header followed by the items at ``bits_per_item`` bits each.
    Every round, each child gets as many of the bits this node holds as
    its edge has room for, so an item may straddle rounds; a frame
    carries the items whose last bit it holds (and the count, if it
    holds the header's last bit), and a relay forwards bits as soon as
    they land (cut-through pipelining).

    Returns:
        The full item list (at every node).
    """
    per_item = max(1, bits_per_item)
    if parent is None:
        received: List[Any] = list(items or ())
        count: Optional[int] = len(received)
        have = HEADER_BITS + count * per_item
    else:
        received = []
        count = None
        have = 0
    sent = {c: 0 for c in children}

    while True:
        mail.ingest(ctx)
        if parent is not None:
            for bits, header, frame_items in mail.pop(tag, parent):
                have += bits
                if header is not None:
                    count = header
                received.extend(frame_items)
        for child, lo in sent.items():
            bits = min(have - lo, ctx.remaining_capacity(child))
            if bits < 1:
                continue
            hi = lo + bits
            header = count if lo < HEADER_BITS <= hi else None
            frame_items = received[
                _ended(lo, HEADER_BITS, per_item):_ended(hi, HEADER_BITS, per_item)
            ]
            ctx.send(child, bits, (bits, header, frame_items), tag)
            sent[child] = hi
        if (
            count is not None
            and len(received) == count
            and all(done == have for done in sent.values())
        ):
            return received
        yield


def convergecast_node(
    ctx: NodeContext,
    mail: Mailbox,
    parent: Optional[str],
    children: Sequence[str],
    num_slots: int,
    my_slots: Optional[Sequence[Any]],
    combine: Callable[[Any, Any], Any],
    identity: Any,
    bits_per_slot: int,
    tag: str,
) -> Generator[None, None, Optional[List[Any]]]:
    """One node's role in a pipelined bottom-up slot aggregation.

    Slot ``i`` of the result is ``combine`` folded over every tree node's
    ``my_slots[i]`` (nodes passing ``None`` contribute ``identity``).
    Slot ``i`` is ready once every child's slot ``i`` has fully landed;
    the ready slots' ``bits_per_slot``-bit values then stream to the
    parent like any other bits, up to the edge's room each round, and a
    frame carries the values whose last bit it holds.

    Returns:
        The combined slot list at the tree root; None elsewhere.
    """
    per_slot = max(1, bits_per_slot)
    child_vals: Dict[str, List[Any]] = {c: [] for c in children}
    ready: List[Any] = []
    sent = 0

    while True:
        mail.ingest(ctx)
        for child, values in child_vals.items():
            for _bits, frame_values in mail.pop(tag, child):
                values.extend(frame_values)
        limit = min((len(v) for v in child_vals.values()), default=num_slots)
        for i in range(len(ready), min(num_slots, limit)):
            value = my_slots[i] if my_slots is not None else identity
            for values in child_vals.values():
                value = combine(value, values[i])
            ready.append(value)
        if parent is None:
            if len(ready) == num_slots:
                return ready
        else:
            bits = min(len(ready) * per_slot - sent, ctx.remaining_capacity(parent))
            if bits > 0:
                hi = sent + bits
                frame_values = ready[sent // per_slot:hi // per_slot]
                ctx.send(parent, bits, (bits, frame_values), tag)
                sent = hi
            if sent == num_slots * per_slot:
                return None
        yield


#: The payload of an end-of-stream message.
_EOS = ("eos",)


def route_to_sink_node(
    ctx: NodeContext,
    mail: Mailbox,
    parent: Optional[str],
    children: Sequence[str],
    packets: Sequence[Tuple[int, Any]],
    tag: str,
) -> Generator[None, None, Optional[List[Any]]]:
    """One node's role in store-and-forward routing toward a sink.

    The routing tree is a BFS tree rooted at the sink (``parent`` is the
    next hop).  A node's outgoing stream is its own ``packets`` followed
    by every bit its children send, in arrival order; each round it
    forwards as many queued bits as the edge has room for, so a packet
    may straddle rounds and the next packet starts in the same round.  A
    frame carries the packets whose last bit it holds, each with that
    bit's offset in the frame.  Once the queue is empty *and* every
    child has signalled end-of-stream, the node sends its own 1-bit EOS
    in the same round if the edge has room left, and stops.  This
    realizes the trivial protocol / τ_MCF routing of Lemma 3.1.

    Args:
        packets: ``(bits, payload)`` pairs originated here, of any size.

    Returns:
        Collected payloads at the sink (``parent is None``); None elsewhere.
    """
    children = list(children)
    # (position of the last bit in this node's outgoing stream, payload)
    # for every packet not yet forwarded whole.
    pending: deque = deque()
    queued = 0
    for bits, data in packets:
        queued += max(1, bits)
        pending.append((queued, data))
    sent = 0
    eos_pending = set(children)
    collected: List[Any] = []
    eos_sent = False

    while True:
        mail.ingest(ctx)
        for child in children:
            for payload in mail.pop(tag, child):
                if payload == _EOS:
                    eos_pending.discard(child)
                    continue
                bits, frame = payload
                for offset, data in frame:
                    pending.append((queued + offset, data))
                queued += bits
        if parent is None:
            collected.extend(data for _end, data in pending)
            pending.clear()
            if not eos_pending:
                return collected
        else:
            bits = min(queued - sent, ctx.remaining_capacity(parent))
            if bits > 0:
                hi = sent + bits
                frame = []
                while pending and pending[0][0] <= hi:
                    end, data = pending.popleft()
                    frame.append((end - sent, data))
                ctx.send(parent, bits, (bits, frame), tag)
                sent = hi
            if (
                sent == queued
                and not eos_pending
                and not eos_sent
                and ctx.remaining_capacity(parent) >= EOS_BITS
            ):
                ctx.send(parent, EOS_BITS, _EOS, tag)
                eos_sent = True
            if eos_sent:
                return None
        yield


def parallel_subphases(
    subgens: Sequence[Generator],
) -> Generator[None, None, List[Any]]:
    """Run several sub-generators in lockstep within one node.

    Each live sub-generator is stepped once per round (they share the
    node's per-edge capacity through the common context).  Used when a
    node participates in several edge-disjoint Steiner-tree convergecasts
    of the same phase simultaneously (Theorem 3.11).

    Returns:
        The sub-generators' return values, in input order.
    """
    live = list(enumerate(subgens))
    results: List[Any] = [None] * len(live)
    while live:
        still = []
        for idx, gen in live:
            try:
                next(gen)
            except StopIteration as stop:
                results[idx] = stop.value
            else:
                still.append((idx, gen))
        live = still
        if live:
            yield
    return results
