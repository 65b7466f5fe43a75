"""The scenario pipeline: materialize → plan → price → solve, each once.

A :class:`~repro.lab.spec.ScenarioSpec` becomes live objects here and
nowhere else.  The steps, in the order every caller takes them:

* :func:`materialize_scenario` — a query family builder produces the
  :class:`~repro.faq.query.FAQQuery` (threading explicit child seeds
  from :func:`repro.workloads.spawn_seeds` through every generator call
  site), a topology family builder the :class:`~repro.network.Topology`,
  and the assignment policy places relations on players;
* :func:`plan_scenario` — the backend-converted
  :class:`~repro.core.planner.Planner` and the identity's compiled
  protocol plan (structure and numbers only — one plan object serves
  every plane, each bringing its own query and solver);
* :func:`predicted_metrics` — the zero-execution cost prediction of
  that plan over the materialized relations;
* :func:`solve_scenario` — the centralized reference solve under the
  spec's solver (running the *protocol* is ``Planner.execute``).

The lab (:mod:`repro.lab`) and the serving plane (:mod:`repro.serve`)
are callers; this module imports neither.  The three memos are keyed on
:func:`identity_key`, so the axis planes of one scenario — and the lab
and the service within one process — share materializations, plans and
prices; :func:`repro.core.memo.clear_all_memos` makes all of them cold.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import costmodel
from .core.memo import PLANE_AXES, LRUMemo, identity_key
from .core.planner import Planner, assign_single_player, worst_case_assignment
from .faq import FAQQuery, bcq, solve
from .hypergraph import Hypergraph
from .lowerbounds import embed_tribes_in_forest, embedding_capacity, hard_tribes
from .network.topology import Topology
from .obs.trace import Tracer
from .protocols.faq_protocol import ProtocolPlan
from .semiring import BACKEND_COLUMNAR, BACKEND_DICT, Factor, get_semiring
from .workloads import random_instance, random_query_structure, spawn_seeds

if TYPE_CHECKING:
    from .lab.spec import ScenarioSpec

#: Semirings whose random instances carry float annotations.
_WEIGHTED_SEMIRINGS = frozenset({"real", "min-plus", "max-plus", "max-times"})


@dataclass
class BuiltQuery:
    """A materialized query plus the embedding metadata policies need.

    ``s_edges``/``t_edges`` are the TRIBES sides of the hard instances —
    present only for the ``hard-*`` families, and required by the
    ``worst-case`` assignment policy.
    """

    query: FAQQuery
    s_edges: Tuple[str, ...] = ()
    t_edges: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Query families
# ---------------------------------------------------------------------------


def _embedded_tribes_query(h: Hypergraph, spec: ScenarioSpec, name: str) -> BuiltQuery:
    """The Lemma 4.4 hard instance: TRIBES embedded in a forest query.

    Raises:
        ValueError: if ``h`` has no vertex to plant a pair on.
    """
    capacity = embedding_capacity(h)
    if capacity == 0:
        raise ValueError(
            f"{name} has no vertex to plant a TRIBES pair on (it needs a "
            "tree with edges >= 2, whose internal vertex carries the pair)"
        )
    (tribes_seed,) = spawn_seeds(spec.seed, 1)
    value = bool(spec.param("value", True))
    tribes = hard_tribes(capacity, spec.n, value, seed=tribes_seed)
    emb = embed_tribes_in_forest(h, tribes)
    query = bcq(h, emb.factors, emb.domains, name=name)
    return BuiltQuery(query, s_edges=tuple(emb.s_edges), t_edges=tuple(emb.t_edges))


def _build_hard_star(spec: ScenarioSpec) -> BuiltQuery:
    arms = int(spec.param("arms", 4))
    return _embedded_tribes_query(
        Hypergraph.star(arms), spec, name=f"hard-star({arms})"
    )


def _build_hard_path(spec: ScenarioSpec) -> BuiltQuery:
    length = int(spec.param("length", 4))
    return _embedded_tribes_query(
        Hypergraph.path(length), spec, name=f"hard-path({length})"
    )


def _random_instance_query(
    h: Hypergraph, spec: ScenarioSpec, name: str, instance_seed: int
) -> BuiltQuery:
    """Random factors over ``h`` in the spec's semiring, free_vars = ().

    ``instance_seed`` must be a *distinct* child of the master seed from
    the structure seed (``spawn_seeds`` prefix stability makes
    re-deriving ``spawn_seeds(spec.seed, 1)[0]`` here collide with the
    callers' structure stream).
    """
    semiring = get_semiring(spec.semiring)
    factors, domains = random_instance(
        h,
        domain_size=spec.domain_size,
        relation_size=spec.n,
        seed=instance_seed,
        semiring=semiring,
        weighted=spec.semiring in _WEIGHTED_SEMIRINGS,
        # Exactly-representable weights: the 8-plane parity contract
        # needs float folds to agree bytewise in any reduction order.
        exact=True,
    )
    if spec.semiring == "boolean":
        return BuiltQuery(bcq(h, factors, domains, name=name))
    return BuiltQuery(
        FAQQuery(
            hypergraph=h,
            factors=factors,
            domains=domains,
            free_vars=(),
            semiring=semiring,
            name=name,
        )
    )


def _build_degenerate(spec: ScenarioSpec) -> BuiltQuery:
    vertices = int(spec.param("vertices", 6))
    d = int(spec.param("d", 2))
    structure_seed, instance_seed = spawn_seeds(spec.seed, 2)
    h = random_query_structure(
        "degenerate", seed=structure_seed, num_vertices=vertices, d=d
    )
    return _random_instance_query(
        h, spec, name=f"degen(v{vertices},d{d})", instance_seed=instance_seed
    )


def _build_acyclic(spec: ScenarioSpec) -> BuiltQuery:
    edges = int(spec.param("edges", 5))
    arity = int(spec.param("arity", 3))
    structure_seed, instance_seed = spawn_seeds(spec.seed, 2)
    h = random_query_structure(
        "acyclic", seed=structure_seed, num_edges=edges, arity=arity
    )
    return _random_instance_query(
        h, spec, name=f"acyclic(e{edges},r{arity})", instance_seed=instance_seed
    )


def _build_tree(spec: ScenarioSpec) -> BuiltQuery:
    edges = int(spec.param("edges", 5))
    structure_seed, instance_seed = spawn_seeds(spec.seed, 2)
    h = random_query_structure("tree", seed=structure_seed, num_edges=edges)
    return _random_instance_query(
        h, spec, name=f"tree(e{edges})", instance_seed=instance_seed
    )


def _build_forest(spec: ScenarioSpec) -> BuiltQuery:
    trees = int(spec.param("trees", 2))
    edges = int(spec.param("edges", 2))
    structure_seed, instance_seed = spawn_seeds(spec.seed, 2)
    h = random_query_structure(
        "forest", seed=structure_seed, num_trees=trees, edges_per_tree=edges
    )
    return _random_instance_query(
        h, spec, name=f"forest(t{trees},e{edges})", instance_seed=instance_seed
    )


def _build_hard_forest(spec: ScenarioSpec) -> BuiltQuery:
    """A TRIBES embedding into a *random* forest — the Lemma 4.4 hard
    instance with fuzzed structure instead of the fixed star/path shapes.

    Seed streams: ``spawn_seeds(spec.seed, 2)`` yields ``(tribes_seed,
    structure_seed)``; ``_embedded_tribes_query`` re-derives the same
    ``tribes_seed`` as ``spawn_seeds(spec.seed, 1)[0]`` (prefix
    stability), so the two call sites stay on distinct streams.
    """
    trees = int(spec.param("trees", 2))
    edges = int(spec.param("edges", 2))
    _tribes_seed, structure_seed = spawn_seeds(spec.seed, 2)
    h = random_query_structure(
        "forest", seed=structure_seed, num_trees=trees, edges_per_tree=edges
    )
    return _embedded_tribes_query(
        h, spec, name=f"hard-forest(t{trees},e{edges})"
    )


QUERY_FAMILIES: Dict[str, Callable[[ScenarioSpec], BuiltQuery]] = {
    "hard-star": _build_hard_star,
    "hard-path": _build_hard_path,
    "hard-forest": _build_hard_forest,
    "degenerate": _build_degenerate,
    "acyclic": _build_acyclic,
    "tree": _build_tree,
    "forest": _build_forest,
}

# ---------------------------------------------------------------------------
# Topology families
# ---------------------------------------------------------------------------

TOPOLOGY_FAMILIES: Dict[str, Callable[..., Topology]] = {
    "line": lambda n: Topology.line(n),
    "ring": lambda n: Topology.ring(n),
    "clique": lambda n: Topology.clique(n),
    "star": lambda leaves: Topology.star(leaves),
    "grid": lambda rows, cols: Topology.grid(rows, cols),
    "tree": lambda branching, depth: Topology.balanced_tree(branching, depth),
    "barbell": lambda clique_size, path_len: Topology.barbell(clique_size, path_len),
    "hypercube": lambda dim: Topology.hypercube(dim),
    "expander": lambda n, degree, seed=0: Topology.expander(n, degree, seed=seed),
    "regular": lambda n, degree, seed=0: Topology.random_regular(degree, n, seed=seed),
    "two-party": lambda: Topology.two_party(),
}


def build_query(spec: ScenarioSpec) -> BuiltQuery:
    """Materialize the spec's query family."""
    try:
        builder = QUERY_FAMILIES[spec.query]
    except KeyError:
        known = ", ".join(sorted(QUERY_FAMILIES))
        raise ValueError(f"unknown query family {spec.query!r}; known: {known}")
    return builder(spec)


def build_topology(spec: ScenarioSpec) -> Topology:
    """Materialize the spec's topology family."""
    try:
        builder = TOPOLOGY_FAMILIES[spec.topology]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_FAMILIES))
        raise ValueError(f"unknown topology family {spec.topology!r}; known: {known}")
    try:
        return builder(**dict(spec.topology_params))
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"bad topology params for {spec.topology!r}: "
            f"{dict(spec.topology_params)} ({exc})"
        ) from exc


def build_assignment(
    spec: ScenarioSpec, built: BuiltQuery, topology: Topology
) -> Optional[Dict[str, str]]:
    """Materialize the assignment policy (None = Planner's round-robin)."""
    if spec.assignment == "round-robin":
        return None
    if spec.assignment == "single":
        return assign_single_player(built.query, topology.nodes[0])
    if spec.assignment == "worst-case":
        if not built.s_edges or not built.t_edges:
            raise ValueError(
                f"assignment 'worst-case' needs a hard-* query family with "
                f"TRIBES sides; {spec.query!r} provides none"
            )
        return worst_case_assignment(
            built.s_edges,
            built.t_edges,
            built.query.hypergraph.edge_names,
            topology,
            topology.nodes,
        )
    raise ValueError(f"unknown assignment policy {spec.assignment!r}")


# ---------------------------------------------------------------------------
# Identity and materialization
# ---------------------------------------------------------------------------

# A scenario's identity is ``core.memo.identity_key`` (imported above):
# the three memos below key on it, and ``clear_all_memos()`` clears it.

#: Materialized (query, topology, assignment) triples shared across axis
#: planes.  The three accounting-neutral axes never change what gets
#: built, and execution never mutates the built objects, so the 8
#: planes of one identity materialize once — and convert once: the
#: backend-converted query every ``Planner`` of the identity shares is
#: kept by ``FAQQuery.with_backend`` on the built query itself, so it
#: is dropped with this memo's entry.  Module-level on purpose: inside a
#: ProcessPool worker the memo persists across that worker's scenarios,
#: which is what makes shipping plain specs (instead of pickled
#: materialized objects) cheap.
MATERIALIZE_MEMO = LRUMemo("pipeline.materialized", maxsize=128)


def materialize_scenario(
    spec: ScenarioSpec,
) -> Tuple[BuiltQuery, Topology, Optional[Dict[str, str]]]:
    """The spec's (built query, topology, assignment), memoized per
    plane-stripped identity.  Callers must treat the returned objects as
    immutable — they are shared across the scenario's axis planes."""

    def build() -> Tuple[BuiltQuery, Topology, Optional[Dict[str, str]]]:
        built = build_query(spec)
        topology = build_topology(spec)
        return built, topology, build_assignment(spec, built, topology)

    return MATERIALIZE_MEMO.get_or_compute(identity_key(spec), build)


# ---------------------------------------------------------------------------
# Plan, price, solve
# ---------------------------------------------------------------------------

#: Compiled protocol plans, one per identity.  A plan holds structure
#: and numbers (GHD, packings, routing tree, bit widths, center row
#: counts) and neither relations nor a solver, so it is a pure function
#: of the instance: compilation fires no counters and all eight planes
#: execute the same plan object read-only, each over its own planner's
#: query and solver (like the materialized query/topology above, the
#: plan is shared, never copied — execution must not mutate it, which
#: the byte-identity gates enforce).
_PLAN_MEMO = LRUMemo("pipeline.protocol_plan", maxsize=256)

#: Cost predictions shared across axis planes: the
#: engine/solver/backend planes of one identity are
#: accounting-identical (the parity gates enforce it), so the four
#: predicted metrics are a function of the plane-stripped spec alone.
#: The memoized path fires no deterministic counters.
_PREDICTION_MEMO = LRUMemo("costmodel.predicted_metrics", maxsize=4096)


def plan_scenario(
    spec: ScenarioSpec, tracer: Optional[Tracer] = None
) -> Tuple[Planner, ProtocolPlan]:
    """The spec's planner — over the identity's backend-converted
    query, which :meth:`FAQQuery.with_backend` builds on the first call
    and every later plane shares read-only — and its compiled protocol
    plan (pass it to ``planner.execute(plan=...)``).  A spec without a
    backend runs the dict plane: the family builders store relations
    columnar, and the dict factors are decoded from them on demand.

    The conversion fires no counter, so the plane that pays for it
    cannot be told from the others.
    """
    built, topology, assignment = materialize_scenario(spec)
    planner = Planner(
        built.query, topology, assignment=assignment,
        backend=spec.backend or BACKEND_DICT, engine=spec.engine,
        solver=spec.solver, tracer=tracer,
    )
    plan = _PLAN_MEMO.get_or_compute(
        identity_key(spec), planner.compile_protocol_plan
    )
    return planner, plan


def predicted_metrics(
    spec: ScenarioSpec, plan: ProtocolPlan, nodes: Sequence[str]
) -> Dict[str, object]:
    """The four cost metrics :func:`repro.costmodel.predict_costs`
    derives from ``plan`` and the identity's materialized relations
    without running a protocol round, memoized per identity.  The lab
    gates them against every run; serving rejects a session it cannot
    price.

    The relations are read through the columnar planes' query, so
    pricing and those planes share one interned view
    (:meth:`FAQQuery.interned_factors`) per identity.

    Raises:
        CostModelError: when the model cannot price the plan.
    """
    return dict(_PREDICTION_MEMO.get_or_compute(
        identity_key(spec),
        lambda: costmodel.predict_costs(
            spec, plan, nodes,
            materialize_scenario(spec)[0].query.with_backend(BACKEND_COLUMNAR),
        ).metrics(),
    ))


def solve_scenario(spec: ScenarioSpec, query: FAQQuery) -> Factor:
    """The reference solve of an already backend-converted ``query``
    under the spec's solver — the serving plane's whole online path."""
    return solve(query, spec.solver)


def worker_init(path: List[str]) -> None:
    """Pool initializer: propagate the parent's import path to
    spawn-style workers, which unpickle specs and tasks by module path."""
    for entry in path:
        if entry not in sys.path:
            sys.path.append(entry)
