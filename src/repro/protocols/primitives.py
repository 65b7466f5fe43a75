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

These generators are the **reference semantics**: the count plane of
:mod:`repro.protocols.timing`, the clock of compiled runs and of
pricing, reimplements the same per-round decisions independently, and
must agree with these bit for bit (the engine-parity tests in
``tests/test_program.py``, the fuzz grid's generator planes, the jump
differential and ``tests/test_framing.py`` catch a drift).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..network.simulator import NodeContext
from .schedule import EOS_BITS, HEADER_BITS


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


class Landed:
    """One node's scatter stream as it lands: the items held in full, in
    order, the count once its header is in, and whether the stream is
    done (received and forwarded whole).  The node's combine on the same
    tree reads it through the gate (:func:`_released`)."""

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.count: Optional[int] = None
        self.done = False


def _released(landed: Landed, star: Sequence[Landed]) -> int:
    """The pipelined star's gate: a combine may release the slots whose
    tuples its node's scatter on the same tree holds in full, in the
    round they land (the scatters step first).  ``star`` holds the
    node's every scatter of the star: the sequential schedule (nothing
    leaves before all of them are done) is this rule with that
    threshold."""
    return len(landed.items)


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
    landed: Optional[Landed] = None,
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

    Args:
        landed: Where the items and count land for another stream of
            the node to read (a fresh :class:`Landed` if None).

    Returns:
        The full item list (at every node).
    """
    per_item = max(1, bits_per_item)
    if landed is None:
        landed = Landed()
    received = landed.items
    if parent is None:
        received.extend(items or ())
        count: Optional[int] = len(received)
        landed.count = count
        have = HEADER_BITS + count * per_item
    else:
        count = None
        have = 0
    sent = {c: 0 for c in children}

    while True:
        mail.ingest(ctx)
        if parent is not None:
            for bits, header, frame_items in mail.pop(tag, parent):
                have += bits
                if header is not None:
                    count = landed.count = header
                received.extend(frame_items)
        for child, lo in sent.items():
            if have <= lo:
                continue
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
            landed.done = True
            return received
        yield


def convergecast_node(
    ctx: NodeContext,
    mail: Mailbox,
    parent: Optional[str],
    children: Sequence[str],
    num_slots: Optional[int],
    my_slots: Optional[Sequence[Any]],
    combine: Callable[[Any, Any], Any],
    identity: Any,
    bits_per_slot: int,
    tag: str,
    gate: Optional[Landed] = None,
    star: Sequence[Landed] = (),
    score: Optional[Callable[[Sequence[Any]], List[Any]]] = None,
) -> Generator[None, None, Optional[List[Any]]]:
    """One node's role in a pipelined bottom-up slot aggregation.

    Slot ``i`` of the result is ``combine`` folded over every tree node's
    ``my_slots[i]`` (nodes passing ``None`` contribute ``identity``).
    Slot ``i`` is ready once every child's slot ``i`` has fully landed;
    the ready slots' ``bits_per_slot``-bit values then stream to the
    parent like any other bits, up to the edge's room each round, and a
    frame carries the values whose last bit it holds.

    In a star, ``gate`` is the node's scatter on the same tree (``star``
    all of its scatters of the star): the slot count is the scatter's,
    slot ``i`` also waits for the gate (:func:`_released`), and the
    node's own value for it is ``score`` of tuple ``i`` (identity when
    ``score`` is None), scored as its tuple is released.

    Returns:
        The combined slot list at the tree root; None elsewhere.
    """
    per_slot = max(1, bits_per_slot)
    child_vals = [(child, []) for child in children]
    ready: List[Any] = []
    sent = 0

    while True:
        if gate is not None and gate.count is None:
            # Before the header, nothing is released here and no child
            # holds a tuple (the scatter reads the mailbox meanwhile).
            yield
            continue
        mail.ingest(ctx)
        for child, values in child_vals:
            for _bits, frame_values in mail.pop(tag, child):
                values.extend(frame_values)
        if gate is not None:
            num_slots = gate.count
            limit = _released(gate, star)
        else:
            limit = num_slots
        for _child, values in child_vals:
            if len(values) < limit:
                limit = len(values)
        start = len(ready)
        if limit > start:
            if score is not None:
                own = score(gate.items[start:limit])
            elif my_slots is not None:
                own = my_slots[start:limit]
            else:
                own = [identity] * (limit - start)
            for i, value in enumerate(own, start):
                for _child, values in child_vals:
                    value = combine(value, values[i])
                ready.append(value)
        if parent is None:
            if len(ready) == num_slots:
                return ready
        else:
            bits = len(ready) * per_slot - sent
            if bits > 0:
                bits = min(bits, ctx.remaining_capacity(parent))
            if bits > 0:
                hi = sent + bits
                frame_values = ready[sent // per_slot:hi // per_slot]
                ctx.send(parent, bits, (bits, frame_values), tag)
                sent = hi
            if num_slots is not None and sent == num_slots * per_slot:
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
        finished = False
        for idx, gen in live:
            try:
                next(gen)
            except StopIteration as stop:
                results[idx] = stop.value
                finished = True
        if finished:
            live = [(idx, gen) for idx, gen in live if gen.gi_frame is not None]
        if live:
            yield
    return results
