"""The distributed FAQ / BCQ protocol — the paper's upper bounds, executed.

This module compiles a query + topology + assignment into the protocol of
Sections 4–5 / Appendix F–G and runs it on the round simulator:

1. Build the best GYO-GHD (Construction 2.8 + F.6 flattening) and list its
   internal nodes bottom-up — the ``y(H)`` *star phases* of Lemma 4.1.
2. Each star phase is Algorithm 1/2/3: the center's relation is broadcast
   to all players; each leaf owner pushes down the aggregates of its
   private variables (Corollary G.2) and scores every broadcast tuple; the
   scores are ⊗-combined back to the center's owner over an edge-disjoint
   Steiner tree packing (Theorem 3.11 / footnote 24).
3. What remains is the core ``C(H)``: every surviving relation is routed
   to the output player (the trivial protocol, Lemma 3.1), who finishes
   the query with free internal computation (Lemma 4.2 / F.2).

The resulting round count realizes

    O( y(H) * min_Δ( N / ST(G,K,Δ) + Δ ) + τ_MCF(G, K, n2 * d * r * N) )

which the benchmarks compare against the Ω̃ lower-bound formulas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import Tracer, normalize as _normalize_tracer

from ..decomposition import GHD, best_gyo_ghd
from ..faq import FAQQuery, solve, validate_solver
from ..faq.message_passing import upward_pass_message
from ..hypergraph import Hypergraph
from ..network.simulator import SimulationResult, Simulator
from ..network.topology import Topology
from ..semiring import BOOLEAN, Factor, to_backend
from .primitives import Mailbox, route_to_sink_node
from .schedule import Schedule, StarShape, build_schedule
from .set_intersection import SlotPlan, plan_slots, star_over_packing


@dataclass
class StarPhase:
    """One Lemma 4.1 star: a GHD internal node and its (current) leaves.

    Attributes:
        star_id: Bottom-up index (0-based); also the message-tag namespace.
        center_node: GHD node id of the star center.
        center_edge: Relation name held at the center.
        center_schema: The broadcast tuple schema (deterministic order).
        center_rows: Rows of the center relation as input.  A GHD node
            is the center of exactly one star and the stars run
            bottom-up, so this is the size the star broadcasts.
        leaf_edges: Relation names of the leaves, by GHD child node.
        slot_plan: Steiner packing rooted at the center's owner; both the
            scatter of the center's tuples (phase A) and the ⊗-convergecast
            of the scores (phase C) run over it, giving the Theorem 3.11
            ``N/ST(G,K,Δ) + Δ`` behaviour per phase.
    """

    star_id: int
    center_node: str
    center_edge: str
    center_schema: Tuple[str, ...]
    center_rows: int
    leaf_edges: Tuple[str, ...]
    slot_plan: SlotPlan


@dataclass
class ProtocolPlan:
    """Everything every player needs to know up front (Model 2.1 grants
    all nodes knowledge of H, G and the protocol).

    Structure and numbers only: the relations stay the players' private
    inputs and the solver their own business, so whoever runs the plan
    brings both, and one plan serves every backend, solver, engine and
    kernel plane of an instance.  ``schedule`` is every node's op order,
    stream tags and tree neighbours, which every round plane reads.
    """

    ghd: GHD
    assignment: Dict[str, str]
    output_player: str
    stars: List[StarPhase]
    final_edges: Tuple[str, ...]
    routing_parents: Dict[str, Optional[str]]
    schedule: Schedule
    tuple_bits: int
    value_bits: int
    capacity_bits: int

    @property
    def num_star_phases(self) -> int:
        return len(self.stars)


@dataclass
class FAQProtocolReport:
    """Measured outcome of one protocol run.

    Attributes:
        answer: The result factor over the free variables, as known by the
            output player at the end of the protocol.
        rounds: Communication rounds used (Model 2.1 accounting).
        total_bits: Total bits carried across all edges.
        simulation: The raw simulator result.
        plan: The compiled plan (star count = the y(H) factor, Δs, ...).
    """

    answer: Factor
    rounds: int
    total_bits: int
    simulation: SimulationResult
    plan: ProtocolPlan

    @property
    def num_star_phases(self) -> int:
        return self.plan.num_star_phases


def default_value_bits(query: FAQQuery) -> int:
    """Bits charged per transmitted semiring value.

    1 for Boolean annotations; otherwise a 32-bit word (the paper treats
    semiring values as unit-cost ``O(log D)``-bit objects).
    """
    if query.semiring.name == BOOLEAN.name:
        return 1
    return 32


def compile_plan(
    query: FAQQuery,
    topology: Topology,
    assignment: Dict[str, str],
    output_player: Optional[str] = None,
    ghd: Optional[GHD] = None,
    max_diameter: Optional[int] = None,
) -> ProtocolPlan:
    """Compile the distributed protocol for (query, topology, assignment).

    Args:
        query: The FAQ instance, read for its schemas, relation sizes
            and bit widths only — the plan keeps none of its relations.
            Free variables must fit in one GHD root bag (the Appendix
            G.5 restriction ``F ⊆ V(C(H))``, generalized to any
            admissible rooting).
        assignment: Relation name -> owning player (complete assignment of
            one node per function, as in Model 2.1).
        output_player: The designated player that must know the answer;
            defaults to the owner of a core relation.
        ghd: Optional decomposition (defaults to the best GYO-GHD).
        max_diameter: Fix the Steiner packing Δ (None = optimize per star).

    Raises:
        ValueError: on incomplete assignments, unknown players, or free
            variables no root bag can host.
    """
    missing = set(query.hypergraph.edge_names) - set(assignment)
    if missing:
        raise ValueError(f"unassigned relations: {sorted(missing)}")
    bad_players = {p for p in assignment.values() if p not in topology}
    if bad_players:
        raise ValueError(f"assigned players not in G: {sorted(bad_players)}")

    free = set(query.free_vars)
    if ghd is not None:
        tree = ghd
        stray_free = free - set(tree.root.chi)
        if stray_free:
            raise ValueError(
                "free variables outside the GHD root bag are unsupported "
                f"(Appendix G.5): {sorted(stray_free, key=str)}"
            )
    else:
        # Choose a rooting whose root bag holds every free variable —
        # the protocol's form of the F ⊆ V(C(H)) restriction.
        tree = best_gyo_ghd(query.hypergraph, require_in_root=free)
    if output_player is None:
        root_edges = sorted(tree.root.lam) or sorted(query.hypergraph.edge_names)
        output_player = assignment[root_edges[0]]
    if output_player not in topology:
        raise ValueError(f"output player {output_player!r} not in G")

    tuple_bits = query.bits_per_tuple()
    value_bits = default_value_bits(query)
    capacity = max(tuple_bits, value_bits)

    # Node id -> the single relation it carries (None for a multi-relation
    # core root, which is handled by the trivial phase instead).
    def node_edge(node_id: str) -> Optional[str]:
        lam = tree.nodes[node_id].lam
        if len(lam) == 1:
            return next(iter(lam))
        return None

    stars: List[StarPhase] = []
    consumed: set = set()
    star_id = 0
    postorder = [n.node_id for n in tree.postorder()]
    for node_id in postorder:
        node = tree.nodes[node_id]
        if not node.children:
            continue
        center_edge = node_edge(node_id)
        if center_edge is None:
            continue  # multi-relation core root: trivial phase handles it
        leaf_edges = []
        for child_id in node.children:
            child_edge = node_edge(child_id)
            if child_edge is None:
                raise ValueError(
                    f"GHD node {child_id!r} carries {len(tree.nodes[child_id].lam)} "
                    "relations; only the root may"
                )
            leaf_edges.append(child_edge)
            consumed.add(child_edge)
        center_owner = assignment[center_edge]
        participants = sorted(
            {center_owner} | {assignment[e] for e in leaf_edges}
        )
        center = query.factors[center_edge]
        slot_plan = plan_slots(
            topology,
            participants,
            center_owner,
            max(1, len(center)),
            max_diameter,
        )
        stars.append(
            StarPhase(
                star_id=star_id,
                center_node=node_id,
                center_edge=center_edge,
                center_schema=center.schema,
                center_rows=len(center),
                leaf_edges=tuple(leaf_edges),
                slot_plan=slot_plan,
            )
        )
        star_id += 1

    final_edges = tuple(
        sorted(set(query.hypergraph.edge_names) - consumed)
    )
    # Restrict the final routing to nodes on some origin->sink path, so
    # co-located instances cost zero communication (no EOS chatter).
    routing_parents = topology.bfs_tree(output_player)
    origins = {
        assignment[name]
        for name in final_edges
        if assignment[name] != output_player
    }
    participants = {output_player}
    for origin in origins:
        cur = origin
        while cur is not None and cur not in participants:
            participants.add(cur)
            cur = routing_parents[cur]
    routing_parents = {
        node: (parent if parent in participants else None)
        for node, parent in routing_parents.items()
        if node in participants
    }
    return ProtocolPlan(
        ghd=tree,
        assignment=dict(assignment),
        output_player=output_player,
        stars=stars,
        final_edges=final_edges,
        routing_parents=routing_parents,
        schedule=build_schedule(
            topology.nodes,
            [StarShape(s.star_id, s.slot_plan.parents, s.slot_plan.terminals)
             for s in stars],
            routing_parents, output_player,
        ),
        tuple_bits=tuple_bits,
        value_bits=value_bits,
        capacity_bits=capacity,
    )


def star_contributions(
    plan: ProtocolPlan,
    query: FAQQuery,
    star: StarPhase,
    state: Dict[str, Factor],
    node: str,
) -> List[Factor]:
    """The factors this player scores broadcast tuples against.

    The center's owner contributes its own relation; each leaf owner
    contributes its pushed-down message (Corollary G.2); a player holding
    several star relations contributes all of them (the paper exploits
    |K| < k, Section 2.2.1).  Shared by both protocol engines so Phase B
    semantics cannot drift between them.
    """
    contributions: List[Factor] = []
    center_owner = plan.assignment[star.center_edge]
    if node == center_owner and star.center_edge in state:
        contributions.append(state[star.center_edge])
    keep = set(plan.ghd.nodes[star.center_node].chi)
    for leaf_edge in star.leaf_edges:
        if plan.assignment[leaf_edge] == node and leaf_edge in state:
            message = upward_pass_message(query, state[leaf_edge], keep)
            contributions.append(message)
    return contributions


def row_scorer(
    semiring,
    schema: Sequence[str],
    contributions: Sequence[Factor],
) -> Callable[[Sequence[Tuple]], List[Any]]:
    """The dict-plane scorer: each contribution's lookup is built once,
    and the returned function scores rows (⊗ of the per-contribution
    lookups, in contribution order) whenever they arrive."""
    schema_index = {v: i for i, v in enumerate(schema)}
    probes = []
    for factor in contributions:
        proj = [schema_index[v] for v in factor.schema if v in schema_index]
        proj_vars = [v for v in factor.schema if v in schema_index]
        # Reorder factor lookup to its own schema order.
        key_of = _key_getter([factor.schema.index(v) for v in proj_vars])
        lookup: Dict[Tuple, Any] = {}
        for frow, fval in factor:
            key = key_of(frow)
            if key in lookup:
                lookup[key] = semiring.add(lookup[key], fval)
            else:
                lookup[key] = fval
        probes.append((_key_getter(proj), lookup))
    one, zero, mul = semiring.one, semiring.zero, semiring.mul

    def score(rows: Sequence[Tuple]) -> List[Any]:
        slots: List[Any] = [one] * len(rows)
        for key_of, lookup in probes:
            get = lookup.get
            for i, row in enumerate(rows):
                slots[i] = mul(slots[i], get(key_of(row), zero))
        return slots

    return score


def _key_getter(positions: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """``row -> tuple(row[i] for i in positions)``, built once."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


def score_rows(
    semiring,
    schema: Sequence[str],
    contributions: Sequence[Factor],
    rows: Sequence[Tuple],
) -> List[Any]:
    """Score a whole slice at once with :func:`row_scorer`."""
    return row_scorer(semiring, schema, contributions)(rows)


def _make_player(
    plan: ProtocolPlan, query: FAQQuery, node: str, solver: str = "operator"
):
    """Build the full per-player generator: all star phases + final phase."""
    semiring = query.semiring
    schedule = plan.schedule[node]

    def proc(ctx):
        mail = Mailbox()
        state: Dict[str, Factor] = {
            name: query.factors[name]
            for name, owner in plan.assignment.items()
            if owner == node
        }
        for role in schedule.stars:
            star = plan.stars[role.star_id]
            # Phase A: scatter the center relation's tuples over the
            # packing (tree j carries slice j — Algorithm 1's broadcast,
            # parallelized as in Example 2.3).
            slices = None
            if role.is_root:
                items = list(state[star.center_edge].tuples())
                ranges = star.slot_plan.slice_ranges(len(items))
                slices = [items[slice(*ranges[j])] for j in role.trees]
            # Phase B: local slot computation (free, Model 2.1).  Only the
            # packing terminals (the star's owners) hold full rows; relays
            # and terminals holding none of the star's relations
            # contribute identities.
            score = None
            if role.is_terminal:
                contributions = star_contributions(
                    plan, query, star, state, node
                )
                if contributions:
                    score = row_scorer(
                        semiring, star.center_schema, contributions
                    )
            # Phase C, pipelined behind phase A: the ⊗-convergecast over
            # the packing (footnote 24) sends each slot up once its tuple
            # has landed here.
            parts, combined = yield from star_over_packing(
                ctx, mail, role.scatter, role.combine, slices, score,
                plan.tuple_bits, semiring.mul, semiring.one, plan.value_bits,
            )
            # Phase D: the center's owner rebuilds its relation (on the
            # query's storage backend, so later phases stay vectorized).
            if role.is_root:
                rows = [row for part in parts for row in part]
                new_rows = {
                    tuple(row): combined[i] for i, row in enumerate(rows)
                }
                rebuilt = Factor(
                    star.center_schema, new_rows, semiring, star.center_edge
                )
                if query.backend is not None:
                    rebuilt = to_backend(rebuilt, query.backend)
                state[star.center_edge] = rebuilt
            # Leaves are absorbed; drop them everywhere.
            for leaf_edge in star.leaf_edges:
                state.pop(leaf_edge, None)

        # Final phase: the trivial protocol ships every surviving relation
        # to the output player, who finishes with free computation.
        route = schedule.route
        collected = None
        if route is not None:
            item_bits = plan.tuple_bits + plan.value_bits
            collected = yield from route_to_sink_node(
                ctx, mail, route.parent, route.children,
                [
                    (item_bits, item)
                    for item in _final_payload(plan, query, node, state)
                ],
                route.tag,
            )
        if not schedule.is_output:
            return None
        return _finish_locally(plan, query, state, collected or [], solver)

    return proc


def _final_payload(
    plan: ProtocolPlan, query: FAQQuery, node: str, state: Dict[str, Factor]
) -> List[Tuple[str, Tuple, Any]]:
    """The ``(relation, row, value)`` items ``node`` routes to the output
    player: every surviving final relation it owns (none at the output
    player itself)."""
    if node == plan.output_player:
        return []
    return [
        (name, row, value)
        for name in plan.final_edges
        if plan.assignment[name] == node
        for row, value in state.get(name, query.factors[name])
    ]


def _finish_locally(
    plan: ProtocolPlan,
    query: FAQQuery,
    state: Dict[str, Factor],
    collected: Sequence[Tuple[str, Tuple, Any]],
    solver: str = "operator",
) -> Factor:
    """The output player's free internal computation: rebuild the final
    relations routed to it from the ``collected`` items, then solve the
    residual core query over them and its own."""
    received: Dict[str, Dict[Tuple, Any]] = {
        name: {} for name in plan.final_edges
    }
    for name, row, value in collected:
        received[name][tuple(row)] = value
    factors: Dict[str, Factor] = {}
    for name in plan.final_edges:
        if plan.assignment[name] == plan.output_player:
            factors[name] = state.get(name, query.factors[name])
        else:
            factors[name] = Factor(
                query.factors[name].schema, received[name], query.semiring,
                name,
            )
    residual_h = Hypergraph(
        {name: f.schema for name, f in factors.items()}
    )
    residual_vars = residual_h.vertices
    residual = FAQQuery(
        hypergraph=residual_h,
        factors=factors,
        domains={v: query.domains[v] for v in residual_vars},
        free_vars=tuple(v for v in query.free_vars if v in residual_vars),
        semiring=query.semiring,
        aggregates={
            v: agg
            for v, agg in query.aggregates.items()
            if v in residual_vars and v not in query.free_vars
        },
        bound_order=tuple(
            v for v in query.bound_order if v in residual_vars
        ),
        name=f"{query.name or 'faq'}/residual",
        # The output player's free computation runs on the query's data
        # plane: relations received over the wire (rebuilt as dict rows)
        # are re-encoded columnar here when the query asks for it.
        backend=query.backend,
    )
    return solve(residual, solver)


#: The two protocol execution engines: ``"generator"`` is the reference
#: per-node-generator simulator, the clock that ships real tuples;
#: ``"compiled"`` does the data work once and reads its clock from the
#: count plane (see :mod:`repro.protocols.compiler`).  Both produce
#: identical answers and identical round/bit accounting.
ENGINES: Tuple[str, ...] = ("generator", "compiled")


def validate_engine(engine: str) -> str:
    """Check an engine name, returning it unchanged."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
        )
    return engine


def run_distributed_faq(
    query: FAQQuery,
    topology: Topology,
    assignment: Dict[str, str],
    output_player: Optional[str] = None,
    ghd: Optional[GHD] = None,
    max_diameter: Optional[int] = None,
    max_rounds: int = 2_000_000,
    engine: str = "generator",
    solver: str = "operator",
    tracer: Optional[Tracer] = None,
    plan: Optional[ProtocolPlan] = None,
) -> FAQProtocolReport:
    """Compile and run the distributed FAQ protocol on the simulator.

    This is the repository's headline entry point: the executable form of
    Theorems 4.1 / 5.1 / 5.2's upper bounds.

    Args:
        engine: ``"generator"`` steps one Python generator per node per
            round (the reference engine); ``"compiled"`` does the data
            work once, in plan order, and takes its rounds and bits from
            the count plane (:mod:`repro.protocols.timing`).  Answers,
            round counts and bit accounting are identical; only
            wall-clock differs.
        solver: FAQ solver strategy for the players' free internal
            computation — ``"operator"`` or ``"compiled"`` (fused
            elimination steps, cached order).  Orthogonal to ``engine``: it never touches
            what goes over the wire, so answers, round counts and bit
            accounting are identical across solvers.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when enabled,
            the simulator emits per-round protocol events and this entry
            point records a ``plan_compile`` phase timer.  A disabled or
            absent tracer costs one attribute check per guard.
        plan: optional precompiled :class:`ProtocolPlan` of this
            instance — skips the compile step (the ``plan_compile``
            timer still fires, at ~zero elapsed).  The relations and
            the solver are this call's own ``query`` / ``solver``
            whichever plane compiled the plan.  Compilation is
            deterministic and touches no counters, so a reused plan is
            accounting-identical to a fresh compile; callers must not
            mutate it.

    Returns:
        An :class:`FAQProtocolReport` with the answer factor and exact
        round/bit accounting.
    """
    validate_engine(engine)
    solver = validate_solver(solver)
    tracer = _normalize_tracer(tracer)
    compile_start = time.perf_counter()
    if plan is None:
        plan = compile_plan(
            query, topology, assignment, output_player, ghd, max_diameter
        )
    if tracer is not None:
        tracer.phase_timer("plan_compile", time.perf_counter() - compile_start)
    if engine == "compiled":
        from .compiler import run_compiled

        result = run_compiled(
            plan, query, topology, solver, max_rounds, tracer
        )
    else:
        processes = {
            n: _make_player(plan, query, n, solver) for n in topology.nodes
        }
        result = Simulator(
            topology, plan.capacity_bits, max_rounds, tracer=tracer
        ).run(processes)
    answer = result.output_of(plan.output_player)
    if answer is None:
        raise RuntimeError("output player produced no answer (protocol bug)")
    return FAQProtocolReport(
        answer=answer,
        rounds=result.rounds,
        total_bits=result.total_bits,
        simulation=result,
        plan=plan,
    )
