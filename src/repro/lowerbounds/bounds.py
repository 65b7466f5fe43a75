"""Closed-form round bounds and gap analysis — Table 1 and Theorems
4.1 / 5.1 / 5.2 / F.1.

All formulas are stated with constant 1 and with the paper's ``Õ/Ω̃``
polylog factors kept explicit where they are concrete (the
``MinCut log MinCut`` cut-simulation term); benchmarks compare *shape*:
measured upper / formula lower against the Table 1 gap column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.memo import LRUMemo, hypergraph_key, topology_key
from ..decomposition import best_gyo_ghd
from ..hypergraph import Hypergraph, decompose, simple_graph_degeneracy
from ..hypergraph.degeneracy import degeneracy as hyper_degeneracy
from ..network.mincut import mincut
from ..network.steiner import scan_steiner_packings
from ..network.topology import Topology
from .forest_embedding import embedding_capacity as forest_capacity
from .core_embedding import core_embedding_capacity
from .hypergraph_embedding import embedding_capacity as hyper_capacity


#: Structural memo for the Theorem 4.1/F.1 formula: the same (H, G, K, N)
#: identity is evaluated once per axis *plane* in a lab grid (engine x
#: solver x backend), and the formula is axis-blind.
_BCQ_MEMO = LRUMemo("bounds.bcq", maxsize=1024)


@dataclass
class BoundReport:
    """Upper/lower round bounds for one (H, G, K) triple at size N.

    Attributes:
        upper_rounds: The Theorem 4.1/F.1 upper-bound formula value.
        lower_rounds: The Theorem 4.4/F.9 lower-bound formula value.
        components: The formula ingredients (y, n2, d, r, MinCut, ST, Δ,
            embedding capacity, ...), for reports.
    """

    upper_rounds: float
    lower_rounds: float
    components: Dict[str, float]

    @property
    def gap(self) -> float:
        """``upper / lower`` — compared against Table 1's gap column.

        A zero-bit report (both bounds 0, e.g. a co-located run) has gap
        1.0 — the bounds agree vacuously; only a positive upper over a
        zero lower is genuinely unbounded.
        """
        if self.lower_rounds <= 0:
            return 1.0 if self.upper_rounds <= 0 else math.inf
        return self.upper_rounds / self.lower_rounds


def structure_parameters(hypergraph: Hypergraph) -> Dict[str, float]:
    """The (H-only) formula ingredients: y, n2, d, r, k."""
    dec = decompose(hypergraph)
    ghd = best_gyo_ghd(hypergraph)
    if hypergraph.is_simple_graph():
        d = simple_graph_degeneracy(hypergraph)
    else:
        d = hyper_degeneracy(hypergraph)
    return {
        "y": float(ghd.num_internal_nodes),
        "n2": float(dec.n2),
        "d": float(max(1, d)),
        "r": float(max(1, hypergraph.arity)),
        "k": float(hypergraph.num_edges),
        "acyclic": float(dec.is_pure_forest),
    }


def steiner_term(
    topology: Topology,
    players: Sequence[str],
    n_words: int,
    deltas: Optional[Sequence[int]] = None,
) -> Dict[str, float]:
    """``min_Δ ( N / ST(G,K,Δ) + Δ )`` with the achieving Δ and ST."""
    terminals = sorted(set(players))
    if len(terminals) <= 1:
        return {"value": 0.0, "delta": 0.0, "st": 1.0}
    base = max(1, topology.diameter(among=terminals))
    if deltas is None:
        deltas = sorted(
            {base, topology.num_nodes}
            | {min(topology.num_nodes, base * (2**i)) for i in range(8)}
        )
    best = None
    packings = scan_steiner_packings(topology, terminals, deltas)
    for delta, trees in zip(deltas, packings):
        st = len(trees)
        if st == 0:
            continue
        value = n_words / st + delta
        if best is None or value < best["value"]:
            best = {"value": value, "delta": float(delta), "st": float(st)}
    if best is None:
        raise ValueError("no Steiner packing connects the players")
    return best


def bcq_bounds(
    hypergraph: Hypergraph,
    topology: Topology,
    players: Sequence[str],
    n: int,
) -> BoundReport:
    """Theorem 4.1 (simple graphs) / Theorem F.1 (hypergraphs) bounds.

    Upper:  ``y * min_Δ(N r / ST + Δ)  +  n2 d r N / MinCut + diam``
    Lower:  ``(m_forest + m_core) * N / (MinCut log MinCut)`` where the
    ``m``'s are the *achieved* embedding capacities (>= y/2 etc.), i.e.
    the bound our executable reductions actually certify.

    The formula is a pure function of (H, G, K, N) and fires no
    observability counters, so it is memoized structurally; callers get
    a fresh :class:`BoundReport` (components dict copied) per call.
    """
    key = (
        hypergraph_key(hypergraph),
        topology_key(topology),
        tuple(sorted(set(players))),
        int(n),
    )
    report = _BCQ_MEMO.get_or_compute(
        key, lambda: _bcq_bounds_uncached(hypergraph, topology, players, n)
    )
    return BoundReport(
        report.upper_rounds, report.lower_rounds, dict(report.components)
    )


def _bcq_bounds_uncached(
    hypergraph: Hypergraph,
    topology: Topology,
    players: Sequence[str],
    n: int,
) -> BoundReport:
    params = structure_parameters(hypergraph)
    terminals = sorted(set(players))
    if len(terminals) <= 1 or topology.num_nodes < 2:
        # Zero-bit scenario: one player (or a single-node topology) holds
        # everything, no communication happens, both bounds are 0.  Keep
        # the structure parameters so reports still show d/r.
        components = dict(params)
        components.update({"co_located": 1.0, "N": float(n)})
        return BoundReport(0.0, 0.0, components)
    cut = mincut(topology, terminals)
    st = steiner_term(topology, terminals, n)
    y, n2, d, r = params["y"], params["n2"], params["d"], params["r"]

    # The core phase is the trivial protocol (Lemma 3.1): n2·d·N tuples
    # routed to one player, priced by Definition 3.12's routing bound
    # τ_MCF ≈ N' / MinCut(G, K) + distance (Appendix D.1).
    trivial_bits_words = n2 * d * n
    diam = topology.diameter(among=terminals) if len(terminals) > 1 else 0
    upper = y * (st["value"] * r) + trivial_bits_words / max(1, cut) + diam

    if hypergraph.is_simple_graph():
        dec = decompose(hypergraph)
        if dec.is_pure_forest:
            m_forest = forest_capacity(hypergraph)
            m_core = 0
        else:
            m_forest = 0
            if dec.forest_edge_names:
                forest_part = hypergraph.restrict_edges(dec.forest_edge_names)
                m_forest = forest_capacity(forest_part)
            core_h = hypergraph.restrict_edges(dec.core_edge_names)
            _mode, m_core = core_embedding_capacity(core_h)
    else:
        m_forest = hyper_capacity(hypergraph)
        m_core = 0
    m = max(1, m_forest + m_core)
    log_cut = max(1.0, math.ceil(math.log2(max(2, cut))))
    lower = m * n / (cut * log_cut)

    components = dict(params)
    components.update(
        {
            "mincut": float(cut),
            "st_delta": st["delta"],
            "st_trees": st["st"],
            "steiner_term": st["value"],
            "m_forest": float(m_forest),
            "m_core": float(m_core),
            "diameter": float(diam),
            "N": float(n),
        }
    )
    return BoundReport(upper, lower, components)


def faq_bounds(
    hypergraph: Hypergraph,
    topology: Topology,
    players: Sequence[str],
    n: int,
) -> BoundReport:
    """Theorem 5.2's general-FAQ bounds (the lower side divided by d·r)."""
    base = bcq_bounds(hypergraph, topology, players, n)
    d, r = base.components["d"], base.components["r"]
    lower = base.lower_rounds / (d * r)
    return BoundReport(base.upper_rounds, lower, base.components)


def table1_gap_budget(row: str, d: float, r: float) -> float:
    """The Table 1 gap column as a multiplicative budget.

    ``Õ(1)`` rows get a generous polylog allowance; the d-dependent rows
    get ``c*d`` and ``c*d²r²`` budgets.  Benchmarks assert
    ``measured_gap <= polylog_allowance * budget``.

    ``d``/``r`` are clamped to at least 1: a degenerate structure report
    (e.g. an edgeless query, d = 0) must never produce a zero budget that
    fails every gap check vacuously.
    """
    d = max(1.0, float(d))
    r = max(1.0, float(r))
    if row in ("faq-line", "faq-arbitrary"):
        return 1.0
    if row == "bcq-degenerate":
        return d
    if row == "faq-hypergraph":
        return d * d * r * r
    if row == "mcm":
        return 1.0
    raise ValueError(f"unknown Table 1 row {row!r}")
