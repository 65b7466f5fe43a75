"""The compiled protocol run: the data work once, the clock from the count plane.

This module is the ``engine="compiled"`` counterpart of
:func:`repro.protocols.faq_protocol._make_player`.  Where the generator
engine interleaves scheduling and data movement inside one generator per
node, a compiled run splits the two:

* **Data** — :func:`execute_plan` goes through the plan's stars in
  order, with no round loop: the star's root dictionary-encodes its
  center once into a :class:`~repro.semiring.columnar.WireBlock`, every
  terminal scores the broadcast rows (Phase B: the columnar key probe
  when the semiring has a vector profile, the shared dict scorer
  otherwise), and the root folds the scores over each Steiner tree in
  the generator's exact association order (vectorized when safe) and
  rebuilds its center.  Then each route node registers its final
  payload and the output player finishes the residual query.  Integer
  (COUNTING) folds pre-check int64 overflow and drop to exact Python
  arithmetic.  The probe, the int64 guard and the dictionary view are
  the operator solver's own: the table of columnar kernels in
  ``docs/architecture.md`` lists them.  Model 2.1 charges nothing for
  local work, and none of it depends on when bits arrive, so doing it
  in plan order gives the answer a round-by-round run would.

* **Time** — :func:`run_compiled` builds the plan's
  :class:`~repro.protocols.timing.CostSkeleton` from the data pass's
  own payload counts and reads rounds, total bits, per-link bits (in
  key order) and the busiest link-round from the count plane
  (:mod:`repro.protocols.timing`), the run pricing shares.

Engine parity — identical answers, identical round counts, identical
total/per-edge bits — is asserted end-to-end by ``tests/test_program.py``
over every Table 1 suite.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    WireBlock,
    supports_columnar,
    to_backend,
)
from ..semiring.columnar import (
    dictionary_array,
    merge_dictionaries,
    probe,
    product_overflows,
)
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
from .schedule import Schedule, StarRole
from .timing import CostModelError, plan_skeleton, run_timing, shared_timing

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


def fold_tree_slots(
    schedule: Schedule,
    star: StarPhase,
    j: int,
    slots_by_node: Dict[str, Any],
    start: int,
    stop: int,
    vec_mul: Callable[[Any, Any], Any],
    identity_fn: Callable[[int], Any],
):
    """Combine packing tree ``j``'s slot contributions, root association.

    Replicates the convergecast's value flow without its timing: each
    node's value is its own slots (identity when it contributed none)
    combined with its children's folded values in the schedule's
    sorted-child order — the exact association the generator's
    pipelined combine produces.

    Args:
        vec_mul: Elementwise slot-vector combiner (e.g. the semiring ⊗).
        identity_fn: length -> identity slot vector.
    """
    length = stop - start

    def value_of(node: str):
        own = slots_by_node.get(node)
        acc = own[start:stop] if own is not None else identity_fn(length)
        for child in schedule.children(node, star.star_id, j):
            acc = vec_mul(acc, value_of(child))
        return acc

    return value_of(star.slot_plan.root)


def _align_join_columns(
    wire_dict: List[Any],
    wire_codes: np.ndarray,
    factor_dict: List[Any],
    factor_codes: np.ndarray,
):
    """Map two dictionary-coded columns into one shared code space.

    Shared dictionaries (zero-copy columnar wire blocks) need no work at
    all.  Integer dictionaries with an exact array view
    (:func:`~repro.semiring.columnar.dictionary_array`, not memoized by
    object identity: the callers pass temporaries, and a freed list
    hands its identity to the next one allocated) translate codes to
    their values and shift into a dense non-negative range — pure array
    arithmetic, no Python-level dictionary merge.  Anything else falls
    back to :func:`merge_dictionaries` (generic hashable values).

    Returns:
        ``(wire_column, factor_column, cardinality)`` where equal entries
        mean equal underlying domain values.
    """
    if wire_dict is factor_dict:
        return wire_codes, factor_codes, len(wire_dict)

    wire_vals = dictionary_array(wire_dict)
    factor_vals = dictionary_array(factor_dict)
    try:
        if (
            wire_vals is not None
            and factor_vals is not None
            and wire_vals.dtype.kind in "iub"
            and factor_vals.dtype.kind in "iub"
        ):
            low = min(int(wire_vals.min()), int(factor_vals.min()))
            card = max(int(wire_vals.max()), int(factor_vals.max())) - low + 1
            if card <= 2 ** 40:
                wire_col = wire_vals.astype(np.int64)[wire_codes] - low
                factor_col = factor_vals.astype(np.int64)[factor_codes] - low
                return wire_col, factor_col, card
    except (TypeError, ValueError, OverflowError):
        # e.g. an empty dictionary, or uint64 values beyond int64 — fall
        # back to the generic merge below.
        pass
    merged, remap = merge_dictionaries(wire_dict, factor_dict)
    return wire_codes, remap[factor_codes], len(merged)


def _vector_scores(
    semiring, schema: Sequence[str], contributions: Sequence[Factor],
    wire: WireBlock,
) -> Optional[np.ndarray]:
    """Phase B, vectorized: score every broadcast row in one pass.

    The columnar analogue of ``score_rows``: the wire rows
    :func:`~repro.semiring.columnar.probe` each contribution on its
    shared columns, aligned into one code space (missing rows score the
    semiring zero), and the scores are ⊗-multiplied into the slot
    vector.  Returns ``None`` whenever exactness cannot be guaranteed —
    no vector profile, int64 overflow risk, composite-key overflow, or
    an order-sensitive float ⊕ in a projection — and the caller falls
    back to the dict scorer.
    """
    profile = _profile_of(semiring)
    if profile is None:
        return None
    n = len(wire)
    schema_index = wire.schema_index
    slots = np.full(n, semiring.one, dtype=profile.dtype)
    for factor in contributions:
        try:
            cf = ColumnarFactor.from_factor(factor)
        except (ValueError, OverflowError):
            return None
        proj_vars = [v for v in cf.schema if v in schema_index]
        if len(proj_vars) < len(cf.schema):
            # Projection must ⊕-combine colliding rows; only do it
            # vectorized when ⊕ is order-insensitive.
            if semiring.name not in _EXACT_ADD:
                return None
            projected = dict_project(cf, proj_vars)
            if not isinstance(projected, ColumnarFactor):
                try:
                    projected = ColumnarFactor.from_factor(projected)
                except (ValueError, OverflowError):
                    return None
            cf = projected
            proj_vars = [v for v in cf.schema if v in schema_index]
        wire_cols, factor_cols, cards = [], [], []
        for v in proj_vars:
            fi = cf.column_index(v)
            bi = schema_index[v]
            wire_col, factor_col, card = _align_join_columns(
                wire.dictionaries[bi], wire.codes[bi],
                cf.dictionaries[fi], cf.codes[fi],
            )
            wire_cols.append(wire_col)
            factor_cols.append(factor_col)
            cards.append(card)
        hit = probe(wire_cols, factor_cols, cards, n, len(cf))
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
# Shared per-phase runtime state
# ---------------------------------------------------------------------------


class StarRuntime:
    """Data-plane state one star phase shares across its participants:
    the root's center, encoded once as the broadcast block, its slices
    over the packing trees, and each terminal's scores."""

    def __init__(self, star: StarPhase, semiring, schedule: Schedule,
                 factor: Factor) -> None:
        self.star = star
        self.semiring = semiring
        self.schedule = schedule
        if isinstance(factor, ColumnarFactor):
            # Already columnar: the wire block shares the code arrays and
            # dictionaries (annotations stay local — the scatter ships
            # rows only, at tuple_bits each, like the generator).
            self.wire = WireBlock(
                factor.schema, factor.codes, factor.dictionaries
            )
        else:
            self.wire = WireBlock.encode_rows(
                star.center_schema, factor.tuples()
            )
        self.ranges = star.slot_plan.slice_ranges(len(self.wire))
        self._rows: Optional[List[Tuple]] = None
        self.slots: Dict[str, Any] = {}

    def rows(self) -> List[Tuple]:
        """Decoded broadcast rows (dict-plane fallback, cached)."""
        if self._rows is None:
            self._rows = self.wire.decode_rows()
        return self._rows

    def combined_at_root(self):
        """The ⊗-convergecast result, reassembled across the packing."""
        semiring = self.semiring
        profile = _profile_of(semiring)
        if profile is not None and np.dtype(profile.dtype).kind in "iub":
            # On integers and booleans ``one ⊗ x`` is ``x`` exactly, so a
            # relay (no slots of its own) passes its children's fold on
            # as is; ``None`` stands for the identity until a value comes.
            def vec_mul(a, b):
                if a is None or b is None:
                    return b if a is None else a
                return _mul_values(semiring, profile, a, b)

            identity_fn = lambda length: None
        else:
            vec_mul = lambda a, b: _mul_values(semiring, profile, a, b)
            identity_fn = lambda length: _identity_vector(
                semiring, profile, length)
        per_tree = []
        for j, (start, stop) in enumerate(self.ranges):
            value = fold_tree_slots(
                self.schedule, self.star, j, self.slots, start, stop,
                vec_mul, identity_fn,
            )
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


# ---------------------------------------------------------------------------
# Star phases
# ---------------------------------------------------------------------------


def _compute_star_slots(
    plan: ProtocolPlan,
    query: FAQQuery,
    star: StarPhase,
    state: Dict[str, Factor],
    node: str,
    runtime: StarRuntime,
):
    """Phase B for one terminal: vectorized scorer, dict fallback."""
    contributions = star_contributions(plan, query, star, state, node)
    if not contributions:
        return None
    scores = _vector_scores(
        query.semiring, star.center_schema, contributions, runtime.wire
    )
    if scores is not None:
        return scores
    return score_rows(
        query.semiring, star.center_schema, contributions, runtime.rows()
    )


def _rebuild_center(
    query: FAQQuery, star: StarPhase, runtime: StarRuntime, combined
) -> Factor:
    """Phase D: the center's owner rebuilds its relation from the scores.

    Same canonicalization as the generator path (zero annotations drop);
    when the query's data plane is columnar and the scores stayed
    vectorized, the rebuild is pure array slicing on the wire block.
    """
    semiring = query.semiring
    wire = runtime.wire
    if (
        isinstance(combined, np.ndarray)
        and query.backend == BACKEND_COLUMNAR
        and supports_columnar(semiring)
    ):
        profile = VECTOR_PROFILES[semiring.name]
        zero = profile.is_zero_mask(combined)
        if zero.any():
            keep = ~zero
            codes = [c[keep] for c in wire.codes]
            values = combined[keep]
        else:
            codes = list(wire.codes)
            values = combined
        return ColumnarFactor._from_arrays(
            star.center_schema, codes, list(wire.dictionaries), values,
            semiring, star.center_edge,
        )
    values = combined.tolist() if isinstance(combined, np.ndarray) else combined
    new_rows = {
        tuple(row): values[i] for i, row in enumerate(runtime.rows())
    }
    rebuilt = Factor(star.center_schema, new_rows, semiring, star.center_edge)
    if query.backend is not None:
        rebuilt = to_backend(rebuilt, query.backend)
    return rebuilt


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def execute_plan(
    plan: ProtocolPlan,
    query: FAQQuery,
    topology: Topology,
    solver: str,
) -> Tuple[Factor, Dict[str, int]]:
    """The protocol's data work, once and in plan order, over the
    caller's relations (``query``) and residual ``solver``.

    Each player keeps its own relations.  Per star, bottom-up: the root
    encodes its center, every terminal scores the broadcast rows, the
    root folds the scores and rebuilds its center, and every participant
    drops the star's leaves.  Then each route node gives up its final
    payload, and the output player finishes the residual query with
    free local computation.

    Returns:
        The answer, and the items each route node originates (the
        skeleton's payload counts).
    """
    states: Dict[str, Dict[str, Factor]] = {
        node: {
            name: query.factors[name]
            for name, owner in plan.assignment.items()
            if owner == node
        }
        for node in topology.nodes
    }
    schedule = plan.schedule
    roles: Dict[int, List[Tuple[str, StarRole]]] = {}
    for node in topology.nodes:
        for role in schedule[node].stars:
            roles.setdefault(role.star_id, []).append((node, role))
    for star in plan.stars:
        root = star.slot_plan.root
        runtime = StarRuntime(
            star, query.semiring, schedule, states[root][star.center_edge]
        )
        members = roles.get(star.star_id, ())
        for node, role in members:
            if role.is_terminal:
                slots = _compute_star_slots(
                    plan, query, star, states[node], node, runtime
                )
                if slots is not None:
                    runtime.slots[node] = slots
        states[root][star.center_edge] = _rebuild_center(
            query, star, runtime, runtime.combined_at_root()
        )
        for node, _role in members:
            for leaf_edge in star.leaf_edges:
                states[node].pop(leaf_edge, None)
    payloads: Dict[str, List[Tuple[str, Tuple, Any]]] = {
        node: _final_payload(plan, query, node, states[node])
        for node in sorted(plan.routing_parents)
    }
    collected = [item for items in payloads.values() for item in items]
    answer = _finish_locally(
        plan, query, states[plan.output_player], collected, solver
    )
    return answer, {node: len(items) for node, items in payloads.items()}


def run_compiled(
    plan: ProtocolPlan,
    query: FAQQuery,
    topology: Topology,
    solver: str,
    max_rounds: int,
    tracer: Optional[Tracer] = None,
) -> SimulationResult:
    """Run the plan: its data work (:func:`execute_plan`), then its
    clock, the count plane's run of the plan's skeleton — shared with
    pricing, or, with a live ``tracer``, stepped here and shown on it.

    ``engine.fast_forward`` / ``engine.fast_forward_rounds`` count the
    clock's skips and the rounds they cover, whether its run was made
    here or shared.

    Raises:
        SimulationError: when the clock cannot finish — past
            ``max_rounds`` rounds, on deadlock, or on a plan whose
            streams share a link.
    """
    answer, payload_counts = execute_plan(plan, query, topology, solver)
    skeleton = plan_skeleton(plan, topology.nodes, payload_counts)
    try:
        if tracer is None:
            timed = shared_timing(skeleton, max_rounds)
        else:
            tracer.run_start(
                "compiled", plan.capacity_bits, list(topology.nodes)
            )
            timed = run_timing(skeleton, max_rounds, tracer)
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
