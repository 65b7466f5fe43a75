"""Sensor-network PGM inference — the paper's Appendix A.4 motivation.

A tree of sensors each holds a pairwise potential linking its reading to
its parent's; the base station wants the (normalized) marginal of the root
variable.  This is an FAQ-SS factor marginal over (R>=0, +, x) — the
paper's second headline application — computed *distributed*, over the
physical sensor tree itself, with the paper's protocol.

Run:  python examples/sensor_network_pgm.py
"""

import math

from repro import Planner, Topology
from repro.pgm import brute_force_marginal, marginal, tree_model


def main() -> None:
    # -- Centralized inference (the FAQ engine as a PGM library) ---------
    # Brute force enumerates every joint assignment, so it cross-checks
    # message passing on a tree small enough for that: depth 2 has 7
    # variables (3^7 assignments; depth 3 would be 3^15).
    small = tree_model(branching=2, depth=2, domain_size=3, seed=7)
    root_marginal = marginal(small, ("X0",), normalize=True)
    truth = brute_force_marginal(small, ("X0",))
    z = math.fsum(truth.values())
    print(f"P(X0) on a depth-2 tree ({len(small.variables)} variables):")
    agree = True
    for (value,), p in sorted(root_marginal):
        exact = truth[(value,)] / z
        agree = agree and math.isclose(p, exact, rel_tol=1e-9)
        print(f"  X0={value}: {p:.6f}  (brute force {exact:.6f})")
    print(f"matches brute force: {agree}")

    # A 2-ary sensor tree of depth 3: 14 potentials, 15 variables.
    model = tree_model(branching=2, depth=3, domain_size=3, seed=7)
    print(f"\nsensors (factors) : {len(model.factors)}")
    print(f"variables         : {len(model.variables)}")

    # -- Distributed inference over the physical sensor tree ------------
    # The communication topology mirrors the model tree (each potential
    # lives at the child sensor); the base station is the root player.
    query = model.marginal_query(("X0",))
    h = query.hypergraph
    edges = []
    for name, verts in h.edges():
        u, v = sorted(verts, key=lambda x: int(str(x)[1:]))
        edges.append((f"S{str(u)[1:]}", f"S{str(v)[1:]}"))
    topo = Topology(edges, name="sensor-tree")
    assignment = {}
    for name, verts in h.edges():
        child = max(verts, key=lambda x: int(str(x)[1:]))
        assignment[name] = f"S{str(child)[1:]}"

    report = Planner(query, topo, assignment, output_player="S0").execute()
    print(f"\ndistributed rounds : {report.measured_rounds}")
    print(f"total bits         : {report.protocol.total_bits}")
    print(f"matches centralized: {report.correct}")
    got = {t: v for t, v in report.answer}
    for value in sorted(got):
        print(f"  phi(X0={value[0]}) = {got[value]:.6f}")


if __name__ == "__main__":
    main()
