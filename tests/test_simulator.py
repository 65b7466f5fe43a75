"""Tests for the Model 2.1 synchronous round simulator."""

import pytest

from repro.network import (
    CapacityExceeded,
    NodeContext,
    SimulationError,
    Simulator,
    Topology,
    run_protocol,
)


def test_single_message_takes_one_round():
    g = Topology.line(2)

    def sender(ctx):
        ctx.send("P1", 4, "hello")
        return None
        yield

    def receiver(ctx):
        while not ctx.inbox:
            yield
        return ctx.inbox[0].payload

    # sender must be a generator function; wrap appropriately
    def sender_gen(ctx):
        ctx.send("P1", 4, "hello")
        if False:
            yield
        return None

    res = Simulator(g, capacity_bits=8).run({"P0": sender_gen, "P1": receiver})
    assert res.rounds == 1
    assert res.total_bits == 4
    assert res.output_of("P1") == "hello"


def test_message_delivered_next_round():
    g = Topology.line(2)
    seen_rounds = {}

    def sender(ctx):
        ctx.send("P1", 1, "x")
        if False:
            yield
        return None

    def receiver(ctx):
        while not ctx.inbox:
            yield
        seen_rounds["delivery"] = ctx.round
        return None

    Simulator(g, 8).run({"P0": sender, "P1": receiver})
    assert seen_rounds["delivery"] == 2  # sent in round 1, read in round 2


def test_capacity_enforced():
    g = Topology.line(2)

    def greedy(ctx):
        ctx.send("P1", 5, "a")
        ctx.send("P1", 5, "b")  # 10 > 8
        if False:
            yield

    with pytest.raises(CapacityExceeded):
        Simulator(g, 8).run({"P0": greedy})


def test_capacity_is_per_direction():
    g = Topology.line(2)

    def talker(other):
        def proc(ctx):
            ctx.send(other, 8, "full")
            if False:
                yield

        return proc

    res = Simulator(g, 8).run({"P0": talker("P1"), "P1": talker("P0")})
    assert res.total_bits == 16
    assert res.rounds == 1


def test_capacity_resets_each_round():
    g = Topology.line(2)

    def streamer(ctx):
        for _ in range(3):
            ctx.send("P1", 8, "w")
            yield

    res = Simulator(g, 8).run({"P0": streamer})
    assert res.rounds == 3
    assert res.total_bits == 24


def test_send_to_non_neighbor_rejected():
    g = Topology.line(3)

    def bad(ctx):
        ctx.send("P2", 1, "skip")  # P0-P2 not an edge
        if False:
            yield

    with pytest.raises(ValueError, match="P0 -> P2: not an edge of G"):
        Simulator(g, 8).run({"P0": bad})
    # The check reads the sender's own neighbours, looked up once per
    # context; a node G does not have has none.
    stranger = NodeContext("P9", g, 8)
    with pytest.raises(ValueError, match="P9 -> P0: not an edge of G"):
        stranger.send("P0", 1)


def test_zero_bit_message_rejected():
    g = Topology.line(2)

    def bad(ctx):
        ctx.send("P1", 0, "free lunch")
        if False:
            yield

    with pytest.raises(ValueError):
        Simulator(g, 8).run({"P0": bad})


def test_max_rounds_guard():
    g = Topology.line(2)

    def forever(ctx):
        while True:
            yield

    with pytest.raises(SimulationError):
        Simulator(g, 8, max_rounds=10).run({"P0": forever})


def test_unknown_process_node_rejected():
    g = Topology.line(2)

    def noop(ctx):
        if False:
            yield

    with pytest.raises(ValueError):
        Simulator(g, 8).run({"P9": noop})


def test_relay_chain_round_count():
    """A 1-item relay across a 4-node line takes 3 rounds."""
    g = Topology.line(4)

    def source(ctx):
        ctx.send("P1", 1, "token")
        if False:
            yield

    def relay(me, nxt):
        def proc(ctx):
            while not ctx.inbox:
                yield
            ctx.send(nxt, 1, ctx.inbox[0].payload)

        return proc

    def sink(ctx):
        while not ctx.inbox:
            yield
        return ctx.inbox[0].payload

    res = Simulator(g, 8).run(
        {
            "P0": source,
            "P1": relay("P1", "P2"),
            "P2": relay("P2", "P3"),
            "P3": sink,
        }
    )
    assert res.rounds == 3
    assert res.output_of("P3") == "token"


def test_rounds_counts_last_send_not_trailing_compute():
    g = Topology.line(2)

    def sender(ctx):
        ctx.send("P1", 1, "x")
        yield
        yield  # idle (free computation) rounds afterwards
        yield

    res = Simulator(g, 8).run({"P0": sender})
    assert res.rounds == 1


def test_message_filtering_helpers():
    g = Topology.line(3)

    def p0(ctx):
        ctx.send("P1", 1, "a", tag="t1")
        if False:
            yield

    def p2(ctx):
        ctx.send("P1", 1, "b", tag="t2")
        if False:
            yield

    def p1(ctx):
        while len(ctx.inbox) < 2:
            yield
        t1 = ctx.messages(tag="t1")
        from_p2 = ctx.messages(src="P2")
        return (len(t1), len(from_p2))

    res = Simulator(g, 8).run({"P0": p0, "P1": p1, "P2": p2})
    assert res.output_of("P1") == (1, 1)


def test_edge_bits_accounting():
    g = Topology.line(3)

    def p0(ctx):
        ctx.send("P1", 3, "x")
        if False:
            yield

    def p1(ctx):
        while not ctx.inbox:
            yield
        ctx.send("P2", 5, "y")

    res = run_protocol(g, {"P0": p0, "P1": p1}, capacity_bits=8)
    assert res.bits_per_edge == {("P0", "P1"): 3, ("P1", "P2"): 5}
    assert res.total_bits == 8


def test_directed_edge_bits_and_busiest_link():
    g = Topology.line(3)

    def p0(ctx):
        ctx.send("P1", 6, "a")
        ctx.send("P1", 2, "b")
        yield
        ctx.send("P1", 3, "c")

    def p1(ctx):
        while not ctx.inbox:
            yield
        ctx.send("P0", 5, "back")

    res = run_protocol(g, {"P0": p0, "P1": p1}, capacity_bits=8)
    # Directed accounting splits the two directions of an edge.
    assert res.bits_per_edge[("P0", "P1")] == 11
    assert res.bits_per_edge[("P1", "P0")] == 5
    # Busiest link-round: P0->P1 carried 8 bits in round 1.
    assert res.max_edge_bits_per_round == 8
    assert res.link_utilization(8) == 1.0


def test_simulation_error_names_blocked_nodes_and_tags():
    g = Topology.line(2)

    def stuck(ctx):
        while True:
            ctx.send("P1", 1, None, tag="phase9:wait")
            yield

    def forever(ctx):
        while True:
            yield

    with pytest.raises(SimulationError) as err:
        run_protocol(
            g, {"P0": stuck, "P1": forever}, capacity_bits=4, max_rounds=10
        )
    blocked = err.value.blocked
    assert set(blocked) == {"P0", "P1"}
    # P1's pending inbox names the tag it was ignoring.
    assert blocked["P1"] == ["phase9:wait"]
    assert "phase9:wait" in str(err.value)
