"""Unit tests for the protocol communication primitives."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Simulator, Topology
from repro.protocols import (
    EOS_BITS,
    HEADER_BITS,
    Mailbox,
    broadcast_node,
    convergecast_node,
    parallel_subphases,
    route_to_sink_node,
)


def run_on(topology, capacity, procs, max_rounds=100_000):
    return Simulator(topology, capacity, max_rounds).run(procs)


def tree_roles(parents, node):
    children = sorted(n for n, p in parents.items() if p == node)
    return parents.get(node), children


# ---------------------------------------------------------------------------
# broadcast_node
# ---------------------------------------------------------------------------


def broadcast_procs(topology, root, items, bits_per_item=4):
    parents = topology.bfs_tree(root)

    def make(node):
        def proc(ctx):
            mail = Mailbox()
            parent, children = tree_roles(parents, node)
            got = yield from broadcast_node(
                ctx, mail, parent, children,
                items if node == root else None, bits_per_item, "bc",
            )
            return got

        return proc

    return {n: make(n) for n in parents}


def test_broadcast_delivers_everywhere_in_order():
    g = Topology.line(4)
    items = list(range(10))
    res = run_on(g, 8, broadcast_procs(g, "P0", items))
    for node in g.nodes:
        assert res.output_of(node) == items


def test_broadcast_empty_list():
    g = Topology.line(3)
    res = run_on(g, 8, broadcast_procs(g, "P1", []))
    for node in g.nodes:
        assert res.output_of(node) == []


def test_broadcast_pipelines():
    """L items over depth D at 1 item/round: about L + D + header rounds,
    NOT L * D (store-and-forward pipelining)."""
    g = Topology.line(6)
    items = list(range(40))
    res = run_on(g, 4, broadcast_procs(g, "P0", items, bits_per_item=4))
    header_rounds = 32 // 4  # HEADER_BITS chunked at capacity 4
    assert res.rounds <= 40 + 5 + header_rounds + 5
    assert res.rounds >= 40


def test_broadcast_header_chunking_on_thin_edges():
    g = Topology.line(2)
    res = run_on(g, 1, broadcast_procs(g, "P0", [1, 2], bits_per_item=1))
    assert res.output_of("P1") == [1, 2]
    # 32 header bits + 2 items at 1 bit/round.
    assert res.rounds == 34


# ---------------------------------------------------------------------------
# convergecast_node
# ---------------------------------------------------------------------------


def convergecast_procs(topology, root, slots_by_node, num_slots, combine, identity):
    parents = topology.bfs_tree(root)

    def make(node):
        def proc(ctx):
            mail = Mailbox()
            parent, children = tree_roles(parents, node)
            out = yield from convergecast_node(
                ctx, mail, parent, children, num_slots,
                slots_by_node.get(node), combine, identity, 1, "cc",
            )
            return out

        return proc

    return {n: make(n) for n in parents}


def test_convergecast_sums_slots():
    g = Topology.line(3)
    slots = {"P0": [1, 2, 3], "P1": [10, 20, 30], "P2": [100, 200, 300]}
    res = run_on(
        g, 8, convergecast_procs(g, "P2", slots, 3, lambda a, b: a + b, 0)
    )
    assert res.output_of("P2") == [111, 222, 333]
    assert res.output_of("P0") is None


def test_convergecast_identity_contributors():
    g = Topology.line(3)
    slots = {"P0": [5, 7]}  # P1 relays with identity, P2 collects
    res = run_on(
        g, 8, convergecast_procs(g, "P2", slots, 2, lambda a, b: a + b, 0)
    )
    assert res.output_of("P2") == [5, 7]


def test_convergecast_zero_slots_is_free():
    g = Topology.line(3)
    res = run_on(
        g, 8, convergecast_procs(g, "P0", {}, 0, lambda a, b: a + b, 0)
    )
    assert res.rounds == 0
    assert res.output_of("P0") == []


def test_convergecast_pipelines_on_star():
    g = Topology.star(3)
    slots = {n: [1] * 30 for n in g.nodes}
    res = run_on(
        g, 1, convergecast_procs(g, "P0", slots, 30, lambda a, b: a + b, 0)
    )
    assert res.output_of("P0") == [4] * 30
    assert res.rounds <= 32  # 30 slots + O(depth)


# ---------------------------------------------------------------------------
# route_to_sink_node
# ---------------------------------------------------------------------------


def routing_procs(topology, sink, packets_by_node):
    parents = topology.bfs_tree(sink)

    def make(node):
        def proc(ctx):
            mail = Mailbox()
            parent, children = tree_roles(parents, node)
            out = yield from route_to_sink_node(
                ctx, mail, parent, children,
                packets_by_node.get(node, []), "rt",
            )
            return out

        return proc

    return {n: make(n) for n in parents}


def test_routing_collects_everything():
    g = Topology.line(4)
    packets = {
        "P0": [(4, "a"), (4, "b")],
        "P2": [(4, "c")],
        "P3": [(4, "local")],
    }
    res = run_on(g, 8, routing_procs(g, "P3", packets))
    assert sorted(res.output_of("P3")) == ["a", "b", "c", "local"]


def test_routing_empty_is_cheap():
    g = Topology.line(4)
    res = run_on(g, 8, routing_procs(g, "P3", {}))
    assert res.output_of("P3") == []
    # Only EOS coordination: at most one bit per edge per direction-ish.
    assert res.total_bits <= 2 * g.num_edges


def test_routing_respects_capacity_backpressure():
    g = Topology.line(3)
    packets = {"P0": [(8, i) for i in range(20)]}
    res = run_on(g, 8, routing_procs(g, "P2", packets))
    assert sorted(res.output_of("P2")) == list(range(20))
    assert res.rounds >= 20  # one 8-bit packet per round per edge


def test_routing_merges_streams_at_bottleneck():
    g = Topology.star(3)  # P0 hub; P1, P2, P3 leaves
    packets = {"P1": [(8, f"x{i}") for i in range(5)],
               "P2": [(8, f"y{i}") for i in range(5)]}
    res = run_on(g, 8, routing_procs(g, "P3", packets))
    assert len(res.output_of("P3")) == 10
    # All 10 packets funnel through hub->P3: >= 10 rounds on that edge.
    assert res.bits_per_edge[("P0", "P3")] >= 80


def frame_log(stop):
    """A process that records ``(round, bits, payload)`` of every frame
    it receives until ``stop(log)`` says the stream is over."""

    def proc(ctx):
        log = []
        while not stop(log):
            log.extend((ctx.round, m.bits, m.payload) for m in ctx.inbox)
            yield
        return log

    return proc


# ---------------------------------------------------------------------------
# Bit framing: items straddle rounds
# ---------------------------------------------------------------------------


def test_broadcast_item_lands_in_the_round_its_last_bit_arrives():
    # Three 18-bit items on a 32-bit link: the header fills round 1, and
    # the items' 54 bits follow at 32 bits a round, so the second item
    # straddles rounds 2 and 3 and only the third frame completes it.
    g = Topology.line(2)

    def root(ctx):
        mail = Mailbox()
        return (yield from broadcast_node(
            ctx, mail, None, ["P1"], ["a", "b", "c"], 18, "bc"))

    length = HEADER_BITS + 3 * 18
    receiver = frame_log(lambda log: sum(b for _r, b, _p in log) == length)
    res = run_on(g, 32, {"P0": root, "P1": receiver})
    assert res.rounds == 3  # item framing: one 18-bit item a round, 4
    assert res.output_of("P1") == [
        (2, 32, (32, 3, [])),
        (3, 32, (32, None, ["a"])),
        (4, 22, (22, None, ["b", "c"])),
    ]


def test_routed_item_shares_a_round_with_the_next():
    # 50-bit items on a 32-bit link: the first ends 18 bits into round
    # 2, and the second starts in the same frame.  The queue is 151 bits
    # with the EOS, so ceil(151 / 32) = 5 rounds (item framing: 6).
    g = Topology.line(2)
    res = run_on(g, 32, routing_procs(
        g, "P1", {"P0": [(50, "x"), (50, "y"), (50, "z")]}))
    assert res.output_of("P1") == ["x", "y", "z"]
    assert res.rounds == 5
    assert res.total_bits == 3 * 50 + EOS_BITS

    def stop(log):
        return any(payload == ("eos",) for _r, _b, payload in log)

    def origin(ctx):
        mail = Mailbox()
        return (yield from route_to_sink_node(
            ctx, mail, "P1", [], [(50, "x"), (50, "y"), (50, "z")], "rt"))

    frames = run_on(g, 32, {"P0": origin, "P1": frame_log(stop)})
    assert frames.output_of("P1")[1] == (3, 32, (32, [(18, "x")]))


@pytest.mark.parametrize("payload_bits, rounds", [(20, 1), (64, 3)])
def test_eos_piggybacks_only_when_there_is_room(payload_bits, rounds):
    # 20 bits leave room on a 32-bit link: the EOS rides in round 1.
    # 64 bits fill rounds 1 and 2 exactly, so the EOS takes round 3.
    g = Topology.line(2)
    res = run_on(g, 32, routing_procs(g, "P1", {"P0": [(payload_bits, "p")]}))
    assert res.output_of("P1") == ["p"]
    assert (res.rounds, res.total_bits) == (rounds, payload_bits + EOS_BITS)


@st.composite
def routed_payloads(draw):
    capacity = draw(st.integers(1, 64))
    payloads = draw(
        st.lists(st.tuples(st.integers(1, 200), st.integers()), max_size=12)
    )
    return payloads, capacity


@given(routed_payloads())
@settings(max_examples=100, deadline=None)
def test_route_bit_stream_properties(case):
    """One hop, any packet sizes and capacity: the sink gets every
    payload in order, every bit is charged once, and the queue drains
    at the full capacity — ``ceil((bits + EOS) / B)`` rounds."""
    payloads, capacity = case
    g = Topology.line(2)
    res = run_on(g, capacity, routing_procs(g, "P1", {"P0": payloads}))
    bits = sum(b for b, _ in payloads) + EOS_BITS
    assert res.output_of("P1") == [data for _, data in payloads]
    assert res.total_bits == bits
    assert res.rounds == -(-bits // capacity)
    assert res.max_edge_bits_per_round == min(bits, capacity)


@given(st.integers(1, 100))
@settings(max_examples=50, deadline=None)
def test_route_bit_stream_capacity_one(bits):
    """Capacity 1: the packet and its EOS cross one bit a round, and the
    payload is delivered once, whole, after its last bit."""
    g = Topology.line(2)
    res = run_on(g, 1, routing_procs(g, "P1", {"P0": [(bits, "payload")]}))
    assert res.output_of("P1") == ["payload"]
    assert res.rounds == bits + EOS_BITS
    assert res.total_bits == bits + EOS_BITS
    assert res.max_edge_bits_per_round == 1


# ---------------------------------------------------------------------------
# parallel_subphases
# ---------------------------------------------------------------------------


def test_parallel_subphases_lockstep():
    g = Topology.line(2)

    def proc(ctx):
        def stream(tag, count):
            for i in range(count):
                ctx.send("P1", 1, (tag, i), tag)
                yield
            return count

        results = yield from parallel_subphases([stream("a", 3), stream("b", 5)])
        return results

    def sink(ctx):
        got = []
        while len(got) < 8:
            got.extend(m.payload for m in ctx.inbox)
            yield
        return got

    res = run_on(g, 8, {"P0": proc, "P1": sink})
    assert res.output_of("P0") == [3, 5]
    got = res.output_of("P1")
    # Both streams interleave round by round.
    assert ("a", 0) in got and ("b", 4) in got


def test_parallel_subphases_empty():
    g = Topology.line(2)

    def proc(ctx):
        results = yield from parallel_subphases([])
        return results

    res = run_on(g, 8, {"P0": proc})
    assert res.output_of("P0") == []


# ---------------------------------------------------------------------------
# Mailbox
# ---------------------------------------------------------------------------


def test_mailbox_idempotent_per_round():
    g = Topology.line(2)

    def sender(ctx):
        ctx.send("P1", 1, "x", "t")
        if False:
            yield

    def receiver(ctx):
        mail = Mailbox()
        while True:
            mail.ingest(ctx)
            mail.ingest(ctx)  # double ingest same round: no duplication
            got = mail.pop("t", "P0")
            if got:
                return got
            yield

    res = run_on(g, 8, {"P0": sender, "P1": receiver})
    assert res.output_of("P1") == ["x"]


def test_mailbox_separates_tags_and_sources():
    g = Topology.line(3)

    def p0(ctx):
        ctx.send("P1", 1, "a", "t1")
        ctx.send("P1", 1, "b", "t2")
        if False:
            yield

    def p2(ctx):
        ctx.send("P1", 1, "c", "t1")
        if False:
            yield

    def p1(ctx):
        mail = Mailbox()
        seen = 0
        while seen < 3:
            mail.ingest(ctx)
            seen = ctx.round  # crude: wait a couple rounds
            if ctx.round >= 3:
                break
            yield
        assert mail.pop("t1", "P0") == ["a"]
        assert mail.pop("t2", "P0") == ["b"]
        assert mail.pop("t1", "P2") == ["c"]
        assert mail.pop("t1", "P0") == []  # drained
        return True

    res = run_on(g, 8, {"P0": p0, "P1": p1, "P2": p2})
    assert res.output_of("P1") is True
