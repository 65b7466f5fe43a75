"""The protocol control plane: ProtocolPlan -> per-node RoundPrograms.

This module is the compiled engine's counterpart of
:func:`repro.protocols.faq_protocol._make_player`.  Where the generator
engine interleaves scheduling and data movement inside one generator per
node, the compiler splits the two:

* **Control plane** — :func:`compile_round_programs` turns the static
  parts of a :class:`~repro.protocols.faq_protocol.ProtocolPlan` (star
  order, Steiner packings, routing tree, tag namespace, per-item bit
  charges) into one :class:`~repro.network.program.NodeProgram` per
  node: a schedule of typed ops (per star, scatter BROADCAST ∥ gated
  ⊗-CONVERGECAST, then SCORE + REBUILD; then the final ROUTE) that the
  block engine executes in lockstep.  Everything
  that *can* be decided up front is; only data-dependent counts (relation
  sizes shrink as stars rebuild their centers) stay runtime-configured,
  exactly as the generator engine's self-timed headers do.

* **Data plane** — broadcast rows are dictionary-encoded once into a
  shared :class:`~repro.semiring.columnar.WireBlock`, which carries rows
  and no accounting: the ops charge the plan's bit widths, as the
  generator charges its frames (``plan.tuple_bits`` per scattered row;
  ``tuple_bits + value_bits`` per routed item, each stream framed in
  bits so an item may straddle rounds).  Phase B scores
  whole blocks with the columnar key probe when the semiring has a
  vector profile (falling back to the shared dict scorer otherwise);
  convergecast values are folded over each Steiner tree in the
  generator's exact association order, vectorized when safe.  Integer
  (COUNTING) folds pre-check int64 overflow and drop to exact Python
  arithmetic.  The probe, the int64 guard and the dictionary view are
  the operator solver's own: the table of columnar kernels in
  ``docs/architecture.md`` lists them.

Engine parity — identical answers, identical round counts, identical
total/per-edge bits — is asserted end-to-end by ``tests/test_program.py``
over every Table 1 suite.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..network.program import (
    BroadcastOp,
    ComputeStep,
    ConvergecastOp,
    NodeProgram,
    ParallelOps,
    RouteOp,
)
from ..network.topology import Topology
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
from .schedule import NodeSchedule, Schedule, StarRole

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
    """Data-plane state one star phase shares across its participants.

    In-process stand-in for "every participant eventually holds the
    broadcast block / its subtree's scores": the ops' count arithmetic
    gates every send, so nothing is sent before the bits it depends on
    were charged (a slot's release waits for its tuple's last bit).
    """

    def __init__(self, star: StarPhase, semiring, schedule: Schedule) -> None:
        self.star = star
        self.semiring = semiring
        self.schedule = schedule
        self.wire: Optional[WireBlock] = None
        self.ranges: Optional[List[Tuple[int, int]]] = None
        self._rows: Optional[List[Tuple]] = None
        self.slots: Dict[str, Any] = {}

    def ensure_items(self, state: Dict[str, Factor]) -> None:
        """Encode the center relation once, when the root starts scattering."""
        if self.wire is not None:
            return
        factor = state[self.star.center_edge]
        if isinstance(factor, ColumnarFactor):
            # Already columnar: the wire block shares the code arrays and
            # dictionaries (annotations stay local — the scatter ships
            # rows only, at tuple_bits each, like the generator).
            self.wire = WireBlock(
                factor.schema, factor.codes, factor.dictionaries
            )
        else:
            self.wire = WireBlock.encode_rows(
                self.star.center_schema, factor.tuples()
            )
        self.ranges = self.star.slot_plan.slice_ranges(len(self.wire))

    def tree_count(self, j: int) -> int:
        start, stop = self.ranges[j]
        return stop - start

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


class FinalRuntime:
    """Payload side-channel of the final routing phase.

    Frame timing and every bit still travel through the block engine;
    only the payload *content* — which is timing-independent (the sink
    keys received tuples by relation and row) — moves out of band.
    """

    def __init__(self) -> None:
        self.payloads: Dict[str, List[Tuple[str, Tuple, Any]]] = {}

    def register(self, node: str, items: List[Tuple[str, Tuple, Any]]) -> None:
        self.payloads[node] = items

    def collected(self) -> List[Tuple[str, Tuple, Any]]:
        out: List[Tuple[str, Tuple, Any]] = []
        for node in sorted(self.payloads):
            out.extend(self.payloads[node])
        return out


# ---------------------------------------------------------------------------
# Star phase compilation
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


def _compile_star(
    plan: ProtocolPlan,
    query: FAQQuery,
    role: StarRole,
    node: str,
    state: Dict[str, Factor],
    runtime: StarRuntime,
) -> List:
    """This node's schedule for one star phase: scatter ∥ combine (each
    combine gated by the scatter on its tree), then score and rebuild."""
    star = runtime.star
    is_root = role.is_root
    sid = star.star_id

    scatter_ops: List[BroadcastOp] = []
    for j, stream in zip(role.trees, role.scatter):
        root_count_fn = None
        if is_root:
            def root_count_fn(j=j):
                runtime.ensure_items(state)
                return runtime.tree_count(j)

        scatter_ops.append(
            BroadcastOp(
                stream.tag, stream.parent, stream.children,
                plan.tuple_bits, root_count_fn,
            )
        )
    cc_ops = [
        ConvergecastOp(
            stream.tag, stream.parent, stream.children, plan.value_bits,
            gate, scatter_ops,
        )
        for stream, gate in zip(role.combine, scatter_ops)
    ]

    def rebuild(ctx) -> None:
        # Phase B, free and timing-free: the count arithmetic above
        # gated every slot's release on its tuple's bits, and the root
        # folds the scores only after every terminal's last slot landed.
        if role.is_terminal:
            slots = _compute_star_slots(
                plan, query, star, state, node, runtime
            )
            if slots is not None:
                runtime.slots[node] = slots
        if is_root:
            combined = runtime.combined_at_root()
            state[star.center_edge] = _rebuild_center(
                query, star, runtime, combined
            )
        for leaf_edge in star.leaf_edges:
            state.pop(leaf_edge, None)

    return [
        ParallelOps(scatter_ops + cc_ops, label=f"s{sid}:star"),
        ComputeStep(rebuild, label=f"s{sid}:rebuild"),
    ]


# ---------------------------------------------------------------------------
# Final (trivial-protocol) phase compilation
# ---------------------------------------------------------------------------


def _compile_final(
    plan: ProtocolPlan,
    query: FAQQuery,
    solver: str,
    schedule: NodeSchedule,
    node: str,
    state: Dict[str, Factor],
    runtime: FinalRuntime,
) -> List:
    """This node's schedule for the Lemma 3.1 routing + local finish."""
    items: List = []
    route = schedule.route
    if route is not None:
        item_bits = plan.tuple_bits + plan.value_bits

        def payload_bits_fn() -> int:
            payloads = _final_payload(plan, query, node, state)
            runtime.register(node, payloads)
            return len(payloads) * item_bits

        items.append(
            RouteOp(route.tag, route.parent, route.children, payload_bits_fn)
        )
    if schedule.is_output:

        def finish(ctx) -> Factor:
            return _finish_locally(
                plan, query, state, runtime.collected(), solver
            )

        items.append(ComputeStep(finish, label="finish", is_output=True))
    return items


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def compile_round_programs(
    plan: ProtocolPlan,
    query: FAQQuery,
    topology: Topology,
    solver: str = "operator",
) -> Dict[str, NodeProgram]:
    """Compile the full protocol into one :class:`NodeProgram` per node,
    over the caller's relations (``query``) and residual ``solver``.

    The programs replicate the generator players phase for phase: each
    node runs its stars bottom-up (skipping stars whose packing it is
    not part of — the self-timed overlap the Mailbox enables is
    preserved, nodes simply progress independently), then the final
    routing toward the output player, who finishes the residual query
    with free local computation.
    """
    states: Dict[str, Dict[str, Factor]] = {
        node: {
            name: query.factors[name]
            for name, owner in plan.assignment.items()
            if owner == node
        }
        for node in topology.nodes
    }
    star_runtimes = {
        star.star_id: StarRuntime(star, query.semiring, plan.schedule)
        for star in plan.stars
    }
    final_runtime = FinalRuntime()

    programs: Dict[str, NodeProgram] = {}
    for node in topology.nodes:
        schedule = plan.schedule[node]
        items: List = []
        for role in schedule.stars:
            items.extend(
                _compile_star(
                    plan, query, role, node, states[node],
                    star_runtimes[role.star_id],
                )
            )
        items.extend(
            _compile_final(
                plan, query, solver, schedule, node, states[node],
                final_runtime,
            )
        )
        programs[node] = NodeProgram(node, items)
    return programs
