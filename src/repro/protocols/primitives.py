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

These generators are the **reference semantics**: each has a
block-granular mirror in :mod:`repro.network.program`
(``BroadcastOp`` / ``ConvergecastOp`` / ``RouteOp`` / ``ParallelOps``)
that must replicate its per-round decisions bit for bit — change one and
you must change the other (the engine-parity tests in
``tests/test_program.py`` will catch a drift).
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
    receives them from its parent.  Items are forwarded to children as they
    arrive (store-and-forward pipelining), at most ``capacity`` bits per
    child edge per round.  A count header precedes the stream so receivers
    are self-terminating.

    Returns:
        The full item list (at every node).
    """
    if parent is None:
        received: List[Any] = list(items or ())
        count: Optional[int] = len(received)
    else:
        received = []
        count = None
    children = list(children)
    per_item = max(1, bits_per_item)
    # The count header is HEADER_BITS long; on thin edges it is sent in
    # capacity-sized chunks (the first carries the value, the rest are
    # accounted filler) so header cost never exceeds the per-round budget.
    header_left = {c: HEADER_BITS for c in children}
    header_started = set()
    forwarded = {c: 0 for c in children}

    while True:
        mail.ingest(ctx)
        if parent is not None:
            for payload in mail.pop(tag, parent):
                kind, value = payload
                if kind == "hdr":
                    count = value
                elif kind == "it":
                    received.append(value)
                # "hdrc" filler chunks are accounting-only.
        for child in children:
            if count is None:
                continue
            while header_left[child] > 0:
                room = ctx.remaining_capacity(child)
                if room < 1:
                    break
                take = min(room, header_left[child])
                if child not in header_started:
                    ctx.send(child, take, ("hdr", count), tag)
                    header_started.add(child)
                else:
                    ctx.send(child, take, ("hdrc", None), tag)
                header_left[child] -= take
        for child in children:
            if header_left[child] > 0:
                continue
            while (
                forwarded[child] < len(received)
                and ctx.remaining_capacity(child) >= per_item
            ):
                ctx.send(child, per_item, ("it", received[forwarded[child]]), tag)
                forwarded[child] += 1
        done = (
            count is not None
            and len(received) == count
            and all(header_left[c] == 0 for c in children)
            and all(forwarded[c] == count for c in children)
        )
        if done:
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
    ``my_slots[i]`` (nodes passing ``None`` contribute ``identity``).  Each
    node emits slot ``i`` to its parent as soon as all children delivered
    their slot ``i`` — the classic pipeline giving ``num_slots + depth``
    rounds at one slot per edge per round.

    Returns:
        The combined slot list at the tree root; None elsewhere.
    """
    children = list(children)
    child_vals: Dict[str, List[Any]] = {c: [] for c in children}
    out_idx = 0
    result: List[Any] = []
    per_slot = max(1, bits_per_slot)

    while out_idx < num_slots:
        mail.ingest(ctx)
        for child in children:
            child_vals[child].extend(mail.pop(tag, child))
        while out_idx < num_slots:
            if any(len(child_vals[c]) <= out_idx for c in children):
                break
            value = my_slots[out_idx] if my_slots is not None else identity
            for child in children:
                value = combine(value, child_vals[child][out_idx])
            if parent is None:
                result.append(value)
                out_idx += 1
            else:
                if ctx.remaining_capacity(parent) < per_slot:
                    break
                ctx.send(parent, per_slot, value, tag)
                out_idx += 1
        if out_idx < num_slots:
            yield
    return result if parent is None else None


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
    next hop).  Each node first forwards everything received from its
    children plus its own ``packets``; when its queue is empty *and* every
    child has signalled end-of-stream, it signals EOS itself and stops.
    This realizes the trivial protocol / τ_MCF routing of Lemma 3.1.

    Args:
        packets: ``(bits, payload)`` pairs originated here; each must fit
            the edge capacity (chunk larger objects with
            :func:`chunk_packets`).

    Returns:
        Collected payloads at the sink (``parent is None``); None elsewhere.
    """
    children = list(children)
    queue: deque = deque(packets)
    eos_pending = set(children)
    collected: List[Any] = []
    eos_sent = False

    while True:
        mail.ingest(ctx)
        for child in children:
            for payload in mail.pop(tag, child):
                if payload == ("eos",):
                    eos_pending.discard(child)
                else:
                    queue.append(payload)
        if parent is None:
            while queue:
                bits, data = queue.popleft()
                collected.append(data)
            if not eos_pending:
                return collected
        else:
            while queue:
                bits, data = queue[0]
                if ctx.remaining_capacity(parent) < bits:
                    break
                ctx.send(parent, bits, (bits, data), tag)
                queue.popleft()
            if not queue and not eos_pending and not eos_sent:
                if ctx.remaining_capacity(parent) >= EOS_BITS:
                    ctx.send(parent, EOS_BITS, ("eos",), tag)
                    eos_sent = True
            if eos_sent:
                return None
        yield


def chunk_packets(
    payloads: Sequence[Tuple[int, Any]], capacity: int
) -> List[Tuple[int, Any]]:
    """Split oversized packets into capacity-sized chunks.

    The first chunk carries the payload; continuation chunks carry a
    filler marker (the receiver keeps only real payloads, but every bit is
    accounted).
    """
    out: List[Tuple[int, Any]] = []
    for bits, data in payloads:
        if bits <= capacity:
            out.append((bits, data))
            continue
        out.append((capacity, data))
        remaining = bits - capacity
        while remaining > 0:
            out.append((min(capacity, remaining), ("cont",)))
            remaining -= capacity
    return out


def strip_continuations(payloads: Sequence[Any]) -> List[Any]:
    """Drop the filler chunks produced by :func:`chunk_packets`."""
    return [p for p in payloads if p != ("cont",)]


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
