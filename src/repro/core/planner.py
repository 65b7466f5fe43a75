"""The public planning/execution API — the paper's pipeline end-to-end.

``Planner`` ties everything together: given a query ``H``, a topology
``G`` and an assignment of relations to players, it predicts the paper's
upper/lower round bounds (Theorems 4.1 / 5.2), compiles and runs the
distributed protocol, and reports measured-vs-formula gaps as in Table 1.

Assignment policies:

* :func:`assign_round_robin` — spread relations over players;
* :func:`assign_single_player` — everything co-located (zero-communication
  sanity case);
* :func:`worst_case_assignment` — the adversarial Lemma 4.4 placement:
  the Alice-side relations of a TRIBES embedding on one side of a minimum
  K-separating cut, the Bob-side on the other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..faq import FAQQuery, scalar_value, solve, validate_solver
from ..lowerbounds.bounds import BoundReport, bcq_bounds, faq_bounds
from ..network.topology import Topology
from ..obs.trace import Tracer, normalize as _normalize_tracer
from ..protocols.faq_protocol import (
    ENGINES,
    FAQProtocolReport,
    compile_plan,
    run_distributed_faq,
    validate_engine,
)
from ..semiring import BOOLEAN, Factor


def assign_round_robin(
    query: FAQQuery, topology: Topology, players: Optional[Sequence[str]] = None
) -> Dict[str, str]:
    """Relation i -> player (i mod |players|), deterministically ordered."""
    pool = list(players) if players is not None else topology.nodes
    return {
        name: pool[i % len(pool)]
        for i, name in enumerate(sorted(query.hypergraph.edge_names))
    }


def assign_single_player(query: FAQQuery, player: str) -> Dict[str, str]:
    """Every relation on one player (the trivially-communication-free case)."""
    return {name: player for name in query.hypergraph.edge_names}


def worst_case_assignment(
    s_edges: Sequence[str],
    t_edges: Sequence[str],
    all_edges: Sequence[str],
    topology: Topology,
    players: Sequence[str],
) -> Dict[str, str]:
    """The Lemma 4.4 adversarial placement across a minimum cut.

    Alice's relations (``s_edges``) go to players on the A side of a
    minimum K-separating cut, Bob's (``t_edges``) to the B side; the rest
    round-robin over K.  Any protocol then simulates a two-party TRIBES
    protocol across the cut.

    Raises:
        ValueError: if some side of the cut contains no player of K.
    """
    from ..network.mincut import mincut_partition

    side_a, side_b, _crossing = mincut_partition(topology, players)
    players_a = sorted(set(players) & side_a)
    players_b = sorted(set(players) & side_b)
    if not players_a or not players_b:
        raise ValueError("the min cut does not split the player set K")
    assignment: Dict[str, str] = {}
    for i, name in enumerate(sorted(s_edges)):
        assignment[name] = players_a[i % len(players_a)]
    for i, name in enumerate(sorted(t_edges)):
        assignment[name] = players_b[i % len(players_b)]
    rest = [e for e in sorted(all_edges) if e not in assignment]
    pool = sorted(players)
    for i, name in enumerate(rest):
        assignment[name] = pool[i % len(pool)]
    return assignment


@dataclass
class ExecutionReport:
    """Predicted bounds + measured protocol cost for one run.

    Attributes:
        answer: The protocol's answer factor.
        reference: The centralized solver's answer (correctness oracle).
        correct: Whether they agree.
        measured_rounds: Simulator round count.
        predicted: The closed-form :class:`BoundReport`.
        protocol: The raw protocol report.
        protocol_wall_time: Seconds spent executing the protocol alone
            (excludes the reference solve and bound formulas, which are
            engine-independent harness work).
        solver_wall_time: Seconds spent in the centralized reference
            solve alone — what the ``solver`` axis actually changes.
    """

    answer: Factor
    reference: Factor
    correct: bool
    measured_rounds: int
    predicted: BoundReport
    protocol: FAQProtocolReport
    protocol_wall_time: float = 0.0
    solver_wall_time: float = 0.0

    @property
    def measured_gap(self) -> float:
        """measured rounds / formula lower bound — the Table 1 gap."""
        if self.predicted.lower_rounds <= 0:
            return float("inf")
        return self.measured_rounds / self.predicted.lower_rounds

    @property
    def total_bits(self) -> int:
        """Total bits the protocol carried over all edges."""
        return self.protocol.total_bits

    @property
    def link_utilization(self) -> float:
        """Peak per-round link load as a fraction of the capacity ``B``."""
        return self.protocol.simulation.link_utilization(
            self.protocol.plan.capacity_bits
        )


class Planner:
    """Plan, predict and execute a distributed FAQ computation.

    Args:
        query: The FAQ instance.
        topology: The communication graph ``G``.
        assignment: Relation -> player; defaults to round-robin over all
            nodes of ``G``.
        output_player: The player that must know the answer.
        backend: Optional factor storage backend (``"dict"`` or
            ``"columnar"``) applied to the query up front; both the
            centralized reference solve and every player's free internal
            computation then run on that data plane.  The conversion is
            :meth:`FAQQuery.with_backend`'s: made once per query and
            backend, shared by every planner of that query and only ever
            read.  ``None`` (default) keeps the query's own backend.
        engine: Protocol execution engine — ``"generator"`` (the
            reference per-node-generator simulator) or ``"compiled"``
            (the data work once, its clock from the count plane).  Both produce
            identical answers and identical round/bit accounting.
        solver: FAQ solver strategy — ``"operator"`` (operator-at-a-time
            factor algebra) or ``"compiled"`` (fused elimination steps,
            cached order).
            Applies to the centralized reference solve *and* to every
            player's free internal computation inside the protocol; both
            strategies produce identical answers and identical protocol
            cost metrics.
        tracer: Optional :class:`~repro.obs.trace.Tracer`.  When enabled,
            :meth:`execute` emits per-round protocol events plus
            ``plan_compile`` / ``protocol`` / ``solve`` phase timers.
            ``None`` or a disabled tracer is normalized away so the hot
            path pays one attribute check.
    """

    def __init__(
        self,
        query: FAQQuery,
        topology: Topology,
        assignment: Optional[Dict[str, str]] = None,
        output_player: Optional[str] = None,
        backend: Optional[str] = None,
        engine: str = "generator",
        solver: str = "operator",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.backend = backend
        self.engine = validate_engine(engine)
        self.solver = validate_solver(solver)
        self.tracer = _normalize_tracer(tracer)
        if backend is not None:
            query = query.with_backend(backend)
        self.query = query
        self.topology = topology
        self.assignment = assignment or assign_round_robin(query, topology)
        self.output_player = output_player

    @property
    def players(self) -> List[str]:
        """``K``: the players actually holding relations."""
        return sorted(set(self.assignment.values()))

    def predict(self) -> BoundReport:
        """The Theorem 4.1 / 5.2 closed-form bounds for this instance."""
        n = max(1, self.query.max_factor_size)
        players = self.players
        if len(players) < 2:
            return BoundReport(0.0, 0.0, {"co_located": 1.0})
        if self.query.semiring.name == BOOLEAN.name and not self.query.free_vars:
            return bcq_bounds(self.query.hypergraph, self.topology, players, n)
        return faq_bounds(self.query.hypergraph, self.topology, players, n)

    def reference_answer(self) -> Factor:
        """The centralized ground truth (on the configured solver)."""
        return solve(self.query, self.solver)

    def compile_protocol_plan(self):
        """The :class:`~repro.protocols.faq_protocol.ProtocolPlan`
        :meth:`execute` would compile — exposed so sweep runners can
        compile once per instance and pass the plan back via
        ``execute(plan=...)``.  The plan holds no relations and no
        solver, so every backend, solver and engine plane of the
        instance executes the same compiled plan."""
        return compile_plan(
            self.query, self.topology, self.assignment, self.output_player
        )

    def execute(
        self, max_rounds: int = 2_000_000, plan=None
    ) -> ExecutionReport:
        """Run the distributed protocol and cross-check the answer.

        ``plan`` optionally supplies a precompiled protocol plan of this
        instance (see :meth:`compile_protocol_plan`); the relations and
        the solver that run it are always this planner's own.
        """
        tracer = self.tracer
        start = time.perf_counter()
        protocol = run_distributed_faq(
            self.query,
            self.topology,
            self.assignment,
            output_player=self.output_player,
            max_rounds=max_rounds,
            engine=self.engine,
            solver=self.solver,
            tracer=tracer,
            plan=plan,
        )
        protocol_wall_time = time.perf_counter() - start
        start = time.perf_counter()
        reference = self.reference_answer()
        solver_wall_time = time.perf_counter() - start
        if tracer is not None:
            tracer.phase_timer("protocol", protocol_wall_time)
            tracer.phase_timer("solve", solver_wall_time)
        return ExecutionReport(
            answer=protocol.answer,
            reference=reference,
            correct=protocol.answer == reference,
            measured_rounds=protocol.rounds,
            predicted=self.predict(),
            protocol=protocol,
            protocol_wall_time=protocol_wall_time,
            solver_wall_time=solver_wall_time,
        )


def answer_value(report: ExecutionReport):
    """Convenience: the scalar answer of a BCQ execution."""
    return scalar_value(report.answer)
