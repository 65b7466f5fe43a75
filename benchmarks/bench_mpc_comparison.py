"""A.MPC — Appendix A: our model instantiated on the MPC(0) topology.

Appendix A.1.4 claims that on the MPC(0) network G' (k input nodes fully
connected to a p-worker clique) with per-edge capacity L' = N/p, the
paper's Steiner-packing protocol computes star BCQs in O(1) rounds —
matching MPC(0)'s one-round result up to constants.  The bench:

* builds G', checks the explicit p-tree diameter-2 packing;
* runs the actual distributed protocol at capacity L' and asserts the
  round count is a small constant independent of N;
* contrasts with the same query on a line at unit tuple capacity (Θ(N)).
"""

import pytest

from repro.core import Planner
from repro.faq import bcq, scalar_value, solve_naive
from repro.hypergraph import Hypergraph
from repro.network import Simulator, Topology
from repro.network.mpc import (
    build_mpc0_topology,
    compare_star_bounds,
    input_node,
    mpc_edge_capacity,
    mpc_star_packing,
)
from repro.protocols.faq_protocol import _make_player, compile_plan
from repro.workloads import random_instance

K, P = 4, 8


def star_query(n, seed=0):
    h = Hypergraph(
        {f"R{i}": ("A", f"B{i}") for i in range(K)}
    )
    factors, domains = random_instance(h, domain_size=max(16, n), relation_size=n, seed=seed)
    return bcq(h, factors, domains, name=f"star{K}")


def run_on_mpc(n, seed=0):
    query = star_query(n, seed)
    topo = build_mpc0_topology(K, P)
    assignment = {f"R{i}": input_node(i) for i in range(K)}
    capacity = mpc_edge_capacity(K, n * query.bits_per_tuple(), P)
    plan = compile_plan(query, topo, assignment)
    # Override the model capacity with the MPC L' (eq. 13).
    plan.capacity_bits = max(plan.capacity_bits, capacity)
    sim = Simulator(topo, plan.capacity_bits, max_rounds=200_000)
    result = sim.run(
        {node: _make_player(plan, query, node) for node in topo.nodes}
    )
    answer = result.output_of(plan.output_player)
    assert answer == solve_naive(query)
    return result.rounds


def test_explicit_packing_shape(benchmark):
    packing = benchmark.pedantic(mpc_star_packing, args=(K, P), rounds=1, iterations=1)
    assert len(packing) == P
    seen = set()
    for tree in packing:
        assert tree.terminal_diameter() == 2
        for edge in tree.edges:
            assert edge not in seen
            seen.add(edge)
    comparison = compare_star_bounds(K, P, 512)
    print(
        f"packing: {P} trees of diameter 2; "
        f"steiner term N/p+2 = {comparison.steiner_rounds:.0f} tuples; "
        f"at L'=N/p: {comparison.rounds_at_mpc_capacity:.1f} rounds (O(1))"
    )
    assert comparison.rounds_at_mpc_capacity <= 8


def test_constant_rounds_at_mpc_capacity(benchmark):
    """Measured rounds on G' with L'=N/p stay constant as N doubles."""
    r1 = run_on_mpc(64)
    r2 = benchmark.pedantic(run_on_mpc, args=(128,), rounds=1, iterations=1)
    print(f"MPC(0) G', L'=N/p: rounds at N=64 -> {r1}, N=128 -> {r2}")
    assert r2 <= r1 + 4  # O(1): no growth with N beyond rounding
    assert r2 <= 40


def test_line_needs_theta_n_in_contrast(benchmark):
    """The same star on a 4-line at unit-tuple capacity costs Θ(N)."""

    def run(n):
        query = star_query(n, seed=1)
        topo = Topology.line(4)
        report = Planner(query, topo).execute()
        assert report.correct
        return report.measured_rounds

    r64 = run(64)
    r128 = benchmark.pedantic(run, args=(128,), rounds=1, iterations=1)
    print(f"line: rounds at N=64 -> {r64}, N=128 -> {r128}")
    assert 1.5 <= r128 / r64 <= 2.6
