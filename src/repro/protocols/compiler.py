"""The compiled protocol run: the data work once, the clock from the count plane.

This module is the ``engine="compiled"`` counterpart of
:func:`repro.protocols.faq_protocol._make_player`.  Where the generator
engine interleaves scheduling and data movement inside one generator per
node, a compiled run splits the two:

* **Data** — :func:`star_pass` is the only sequential copy of the
  protocol's local star work.  It goes through stars bottom-up, with no
  round loop, over the query's interned factors (every column of a
  variable shares one dictionary, made once per query): every terminal
  scores the center's rows (Phase B: the columnar key probe against the
  center's own code columns when the center and its contributions are
  columnar over shared dictionaries and the semiring has a vector
  profile, the shared dict scorer over its rows otherwise), and the
  root folds the scores over each Steiner tree in the generator's exact
  association order (vectorized when safe) and rebuilds its center from
  the same columns or rows.  Integer (COUNTING) folds pre-check int64
  overflow and drop to exact Python arithmetic.  The probe and the
  int64 guard are the operator solver's own: the table of columnar
  kernels in ``docs/architecture.md`` lists them.
  :func:`execute_plan` runs every star, then each route node gives up
  its final payload and the output player finishes the residual query;
  pricing runs only the stars that feed a routed relation
  (:func:`payload_counts`, read by
  :func:`repro.costmodel.extract_skeleton`).  Model 2.1 charges nothing
  for local work, and none of it depends on when bits arrive, so doing
  it in plan order gives the answer a round-by-round run would.

* **Time** — :func:`run_compiled` builds the plan's
  :class:`~repro.protocols.timing.CostSkeleton` from the pass's payload
  counts and reads rounds, total bits, per-link bits (in key order) and
  the busiest link-round from the count plane
  (:mod:`repro.protocols.timing`), the run pricing shares.

The payload counts are the one data-dependent input of a run's cost, and
the cost model reads the same ones, so the gates that check them compare
against the generator engine, which ships real tuples: engine parity
(``tests/test_program.py`` over every Table 1 suite) and the lab's
measured = predicted gate on every generator plane.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..network.simulator import SimulationError, SimulationResult
from ..network.topology import Topology
from ..obs.counters import COUNTERS
from ..obs.trace import Tracer
from ..semiring import (
    BACKEND_COLUMNAR,
    ColumnarFactor,
    Factor,
    VECTOR_PROFILES,
    supports_columnar,
    to_backend,
)
from ..semiring.columnar import probe, product_overflows
from ..faq import FAQQuery
from ..faq.operations import project as dict_project
from .faq_protocol import (
    ProtocolPlan,
    StarPhase,
    _final_payload,
    _finish_locally,
    score_rows,
    star_contributions,
)
from .schedule import Schedule
from .timing import CostModelError, plan_skeleton, shared_timing

#: Semirings whose ⊕ is order-insensitive at machine precision (boolean
#: or, exact int64 add, float min/max).  REAL's float ``+`` is excluded:
#: re-associating sums could drift from the dict scorer's fold order, and
#: the parity contract is *byte*-identical answers.
_EXACT_ADD = frozenset({"boolean", "counting", "min-plus", "max-plus", "max-times"})


# ---------------------------------------------------------------------------
# Value-plane helpers: vectorize when safe, stay exact otherwise
# ---------------------------------------------------------------------------


def _profile_of(semiring):
    return VECTOR_PROFILES[semiring.name] if supports_columnar(semiring) else None


def _mul_values(semiring, profile, a, b):
    """Elementwise ⊗ of two slot vectors, matching the generator's ops.

    Vectorized when both sides are arrays and an integer profile cannot
    overflow; otherwise an exact Python fold (unbounded ints).  The
    per-slot operand order is preserved, so even float ⊗ chains agree
    bit for bit with the generator engine.
    """
    if (
        profile is not None
        and isinstance(a, np.ndarray)
        and isinstance(b, np.ndarray)
        and not product_overflows(profile, a, b)
    ):
        return profile.mul(a, b)
    left = a.tolist() if isinstance(a, np.ndarray) else a
    right = b.tolist() if isinstance(b, np.ndarray) else b
    return [semiring.mul(x, y) for x, y in zip(left, right)]


def _identity_vector(semiring, profile, length: int):
    if profile is not None:
        return np.full(length, semiring.one, dtype=profile.dtype)
    return [semiring.one] * length


def _vector_scores(
    semiring, center: ColumnarFactor, contributions: Sequence[Factor],
) -> Optional[np.ndarray]:
    """Phase B, vectorized: score every center row in one pass.

    The columnar analogue of ``score_rows``: the center's code columns
    :func:`~repro.semiring.columnar.probe` each contribution on its
    shared columns (missing rows score the semiring zero), and the
    scores are ⊗-multiplied into the slot vector.  The probe needs each
    shared column in one code space, which the query's interned factors
    give (:meth:`~repro.faq.query.FAQQuery.interned_factors`).  Returns
    ``None`` whenever exactness cannot be guaranteed — no vector
    profile, a contribution that is not columnar or whose dictionaries
    are not the center's, int64 overflow risk, composite-key overflow,
    or an order-sensitive float ⊕ in a projection — and the caller
    falls back to the dict scorer.
    """
    profile = _profile_of(semiring)
    if profile is None:
        return None
    n = len(center)
    schema_index = {v: i for i, v in enumerate(center.schema)}
    slots = np.full(n, semiring.one, dtype=profile.dtype)
    for cf in contributions:
        proj_vars = [v for v in cf.schema if v in schema_index]
        if len(proj_vars) < len(cf.schema):
            # Projection must ⊕-combine colliding rows; only do it
            # vectorized when ⊕ is order-insensitive.
            if semiring.name not in _EXACT_ADD:
                return None
            cf = dict_project(cf, proj_vars)
        columns = [schema_index[v] for v in proj_vars]
        if not isinstance(cf, ColumnarFactor) or any(
            cf.dictionary(v) is not center.dictionaries[i]
            for v, i in zip(proj_vars, columns)
        ):
            return None  # not columnar, or not interned
        hit = probe(
            [center.codes[i] for i in columns],
            [cf.codes[cf.column_index(v)] for v in proj_vars],
            [len(center.dictionaries[i]) for i in columns],
            n, len(cf),
        )
        if hit is None:
            return None
        found, rows = hit
        values = np.full(n, semiring.zero, dtype=profile.dtype)
        values[found] = cf.values[rows]
        if product_overflows(profile, slots, values):
            return None
        slots = profile.mul(slots, values)
    return slots


# ---------------------------------------------------------------------------
# The star pass
# ---------------------------------------------------------------------------


def _combine(schedule: Schedule, star: StarPhase, slots: Dict[str, Any],
             num_slots: int, semiring):
    """Phase C's values without its timing: the ⊗-convergecast result,
    reassembled across the packing.

    Per packing tree, each node's value is its own slots (identity when
    it contributed none) combined with its children's folded values in
    the schedule's sorted-child order — the exact association the
    generator's pipelined combine produces.
    """
    profile = _profile_of(semiring)
    if profile is not None and np.dtype(profile.dtype).kind in "iub":
        # On integers and booleans ``one ⊗ x`` is ``x`` exactly, so a
        # relay (no slots of its own) passes its children's fold on as
        # is; ``None`` stands for the identity until a value comes.
        def mul(a, b):
            if a is None or b is None:
                return b if a is None else a
            return _mul_values(semiring, profile, a, b)

        identity = lambda length: None
    else:
        mul = lambda a, b: _mul_values(semiring, profile, a, b)
        identity = lambda length: _identity_vector(semiring, profile, length)

    per_tree = []
    for j, (start, stop) in enumerate(star.slot_plan.slice_ranges(num_slots)):
        def value_of(node: str):
            own = slots.get(node)
            acc = own[start:stop] if own is not None else identity(stop - start)
            for child in schedule.children(node, star.star_id, j):
                acc = mul(acc, value_of(child))
            return acc

        value = value_of(star.slot_plan.root)
        if value is None:
            value = _identity_vector(semiring, profile, stop - start)
        per_tree.append(value)
    if all(isinstance(v, np.ndarray) for v in per_tree):
        return (
            np.concatenate(per_tree) if per_tree
            else _identity_vector(semiring, profile, 0)
        )
    out: List[Any] = []
    for v in per_tree:
        out.extend(v.tolist() if isinstance(v, np.ndarray) else v)
    return out


def _rebuild_center(query: FAQQuery, star: StarPhase, center: Factor,
                    rows: Optional[List[Tuple]], combined) -> Factor:
    """Phase D: the center's owner rebuilds its relation from the scores.

    Same canonicalization as the generator path (zero annotations drop);
    when the query's data plane is columnar and the scores stayed
    vectorized, the rebuild slices the center's own code columns.
    ``rows`` are the center's decoded rows, if Phase B needed them.
    """
    semiring = query.semiring
    if (
        isinstance(combined, np.ndarray)
        and isinstance(center, ColumnarFactor)
        and query.backend == BACKEND_COLUMNAR
    ):
        keep = ~VECTOR_PROFILES[semiring.name].is_zero_mask(combined)
        if keep.all():
            codes, values = list(center.codes), combined
        else:
            codes = [c[keep] for c in center.codes]
            values = combined[keep]
        return ColumnarFactor._from_arrays(
            star.center_schema, codes, list(center.dictionaries), values,
            semiring, star.center_edge,
        )
    values = combined.tolist() if isinstance(combined, np.ndarray) else combined
    if rows is None:
        rows = list(center.tuples())
    rebuilt = Factor(
        star.center_schema,
        {row: values[i] for i, row in enumerate(rows)},
        semiring, star.center_edge,
    )
    if query.backend is not None:
        rebuilt = to_backend(rebuilt, query.backend)
    return rebuilt


def star_pass(
    plan: ProtocolPlan, query: FAQQuery, stars: Iterable[StarPhase]
) -> Dict[str, Factor]:
    """The protocol's local star work over ``stars`` (bottom-up, all of
    the plan's or a subset closed under "feeds"), from the caller's
    relations (``query``'s interned factors).

    Per star, every terminal scores the center's rows, and the root
    folds the scores and rebuilds its center.  Each relation is a leaf
    of at most one star and the center of at most one (before its
    parent's star), and each player scores only the relations it owns,
    so one relation map stands for every player's state.

    Returns:
        Every relation as it stands after those stars.
    """
    semiring = query.semiring
    state: Dict[str, Factor] = dict(query.interned_factors())
    for star in stars:
        center = state[star.center_edge]
        rows = None if isinstance(center, ColumnarFactor) else list(center.tuples())
        slots: Dict[str, Any] = {}
        for node in star.slot_plan.terminals:
            contributions = star_contributions(plan, query, star, state, node)
            if not contributions:
                continue
            scores = None
            if rows is None:
                scores = _vector_scores(semiring, center, contributions)
                if scores is None:
                    rows = list(center.tuples())
            if scores is None:
                scores = score_rows(
                    semiring, star.center_schema, contributions, rows
                )
            slots[node] = scores
        combined = _combine(plan.schedule, star, slots, len(center), semiring)
        state[star.center_edge] = _rebuild_center(
            query, star, center, rows, combined
        )
    return state


def _route_counts(plan: ProtocolPlan, state: Dict[str, Factor]) -> Dict[str, int]:
    """The items each route node originates: the rows of the final
    relations it owns, unless it is the output player."""
    counts: Dict[str, int] = {}
    for name in plan.final_edges:
        owner = plan.assignment[name]
        if owner != plan.output_player:
            counts[owner] = counts.get(owner, 0) + len(state[name])
    return counts


def payload_counts(plan: ProtocolPlan, query: FAQQuery) -> Dict[str, int]:
    """The skeleton's payload counts without the rest of the run.

    Demand-driven: only a final relation owned by another player than
    the output player is routed, and its surviving size depends only on
    the stars below it.  Walking the stars top-down from those relations
    (a selected star's leaves are needed in turn) selects the stars that
    :func:`star_pass` runs; the rest — all of them when nothing is
    routed — cost nothing.
    """
    needed = {
        name for name in plan.final_edges
        if plan.assignment[name] != plan.output_player
    }
    feeding: List[StarPhase] = []
    for star in reversed(plan.stars):
        if star.center_edge in needed:
            needed.update(star.leaf_edges)
            feeding.append(star)
    return _route_counts(plan, star_pass(plan, query, reversed(feeding)))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def execute_plan(
    plan: ProtocolPlan, query: FAQQuery, solver: str
) -> Tuple[Factor, Dict[str, int]]:
    """The protocol's data work, once and in plan order, over the
    caller's relations (``query``) and residual ``solver``.

    Every star (:func:`star_pass`); then each route node gives up its
    final payload, and the output player finishes the residual query
    with free local computation.

    Returns:
        The answer, and the items each route node originates (the
        skeleton's payload counts).
    """
    state = star_pass(plan, query, plan.stars)
    collected = [
        item
        for node in sorted(plan.routing_parents)
        for item in _final_payload(plan, query, node, state)
    ]
    answer = _finish_locally(plan, query, state, collected, solver)
    return answer, _route_counts(plan, state)


def run_compiled(
    plan: ProtocolPlan,
    query: FAQQuery,
    topology: Topology,
    solver: str,
    max_rounds: int,
    tracer: Optional[Tracer] = None,
) -> SimulationResult:
    """Run the plan: its data work (:func:`execute_plan`), then its
    clock, the count plane's run of the plan's skeleton, shared with
    pricing (with a live ``tracer``, stepped here, shown on it, and
    shared from then on).

    ``engine.fast_forward`` / ``engine.fast_forward_rounds`` count the
    clock's skips and the rounds they cover, whether its run was made
    here or shared.

    Raises:
        SimulationError: when the clock cannot finish — past
            ``max_rounds`` rounds, on deadlock, or on a plan whose
            streams share a link.
    """
    answer, counts = execute_plan(plan, query, solver)
    skeleton = plan_skeleton(plan, topology.nodes, counts)
    if tracer is not None:
        tracer.run_start("compiled", plan.capacity_bits, list(topology.nodes))
    try:
        timed = shared_timing(skeleton, max_rounds, tracer)
    except CostModelError as exc:
        raise SimulationError(str(exc)) from exc
    if timed.skips:
        COUNTERS.increment("engine.fast_forward", timed.skips)
        COUNTERS.increment("engine.fast_forward_rounds", timed.skipped_rounds)
    cost = timed.cost
    return SimulationResult(
        rounds=cost.rounds,
        total_bits=cost.total_bits,
        bits_per_edge=dict(cost.bits_per_edge),
        max_edge_bits_per_round=cost.max_edge_bits_per_round,
        outputs={plan.output_player: answer},
    )
