"""Compiled FAQ query plans — typed logical DAGs over the factor algebra.

The operator-at-a-time solvers in this package re-derive everything per
call: each ``join``/``marginalize`` re-merges dictionaries, materializes a
full intermediate factor, and ``greedy_elimination_order`` / GHD planning
is recomputed from scratch for every scenario of a lab grid sweep.  This
module is the planning half of the compiled execution layer (mirroring
PR 3's two-plane protocol engine):

* a small op vocabulary — :class:`InputOp`, :class:`JoinOp`,
  :class:`ProjectOp`, :class:`MarginalizeOp`,
  :class:`AggregateAbsentOp` and the fusion-bearing
  :class:`FusedJoinMarginalizeOp` — each carrying its output slot and
  result schema;
* lowering functions that translate the two solver strategies the
  pipeline reaches (variable elimination, and naive as its fallback)
  into a :class:`QueryPlan`, fusing the ubiquitous "join every factor
  touching ``v``, then ⊕-marginalize ``v`` out" step into one op
  whenever the variable's aggregate is the semiring's own ⊕;
* a :class:`PlanCache` keyed by the *structural* signature of the query —
  factor schemas, free variables, bound order, aggregate signature,
  semiring name and storage backend, never the data — so lab grid sweeps
  that vary only seed/N/assignment compile once and reuse the plan
  (including the greedy elimination order baked into it).

GHD message passing and Yannakakis are operator-level references only
(:mod:`repro.faq.message_passing`, :mod:`repro.faq.yannakakis`): nothing
the pipeline, the lab or the service runs goes through them, so they
have no lowering.

Execution lives in :mod:`repro.faq.executor`; the parity contract is that
``execute_plan(plan_for(query), query)`` returns byte-identical answers to
the operator-at-a-time path on every supported query.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.counters import COUNTERS
from .query import FAQQuery

#: Part of every cache key; bump on plan-semantics or op-vocabulary changes
#: so stale entries miss instead of replaying an outdated lowering.
PLAN_VERSION = 1

#: The FAQ solver execution strategies: ``"operator"`` evaluates operator
#: at a time through :mod:`repro.faq.operations`; ``"compiled"`` lowers the
#: query into a :class:`QueryPlan` once and runs it on the fused columnar
#: executor.  Both produce identical answers.
SOLVER_OPERATOR = "operator"
SOLVER_COMPILED = "compiled"
SOLVERS: Tuple[str, ...] = (SOLVER_OPERATOR, SOLVER_COMPILED)


def validate_solver(solver: Optional[str]) -> str:
    """Normalize and check a solver name (``None`` means ``"operator"``).

    Raises:
        ValueError: on an unknown solver name.
    """
    if solver is None:
        return SOLVER_OPERATOR
    if solver not in SOLVERS:
        raise ValueError(
            f"unknown solver {solver!r}; known: {', '.join(SOLVERS)}"
        )
    return solver


# ---------------------------------------------------------------------------
# Plan ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOp:
    """One step of a compiled plan.

    Attributes:
        out: Environment slot the result is written to.
        schema: The result factor's schema, in order (lowering tracks the
            exact schema the operator path would produce, so the compiled
            answer matches column-for-column).
    """

    out: int
    schema: Tuple[str, ...]


@dataclass(frozen=True)
class InputOp(PlanOp):
    """Load one of the query's input factors into a slot."""

    factor: str = ""


@dataclass(frozen=True)
class JoinOp(PlanOp):
    """Natural join of two slots (Definition 3.4)."""

    left: int = -1
    right: int = -1


@dataclass(frozen=True)
class ProjectOp(PlanOp):
    """Projection ``pi_schema`` with ⊕-combined duplicates."""

    source: int = -1


@dataclass(frozen=True)
class MarginalizeOp(PlanOp):
    """Aggregate one bound variable out of a slot.

    The concrete operator (semiring ⊕, a custom semiring aggregate, or a
    full-domain product fold) is resolved from the query at execution
    time, so plans stay pure structure.
    """

    source: int = -1
    variable: Any = None


@dataclass(frozen=True)
class AggregateAbsentOp(PlanOp):
    """Aggregate out a bound variable occurring in no factor (naive solver)."""

    source: int = -1
    variable: Any = None


@dataclass(frozen=True)
class FusedJoinMarginalizeOp(PlanOp):
    """The fused elimination step: join ``sources``, ⊕-marginalize ``variable``.

    This is the hot loop of variable elimination collapsed into one op:
    the executor runs it as a single index-join + sort/``reduceat``
    group-by kernel that never materializes the joined factor.  Lowering
    only emits it when the variable's aggregate is the semiring's own ⊕
    (FAQ-SS semantics); anything else stays an explicit
    :class:`JoinOp`/:class:`MarginalizeOp` sequence.
    """

    sources: Tuple[int, ...] = ()
    variable: Any = None


@dataclass(frozen=True)
class QueryPlan:
    """A lowered, executable query plan.

    Attributes:
        strategy: Which solver semantics the plan encodes
            (``"variable-elimination"`` or ``"naive"``).
        ops: The steps, in execution (topological) order.
        output: Slot holding the final factor.
        num_slots: Environment size.
        cache_key: The structural signature this plan was cached under
            (``None`` for uncacheable queries, i.e. custom aggregate
            callables).
        order: The elimination order baked into a variable-elimination
            plan (informational; already reflected in ``ops``).
    """

    strategy: str
    ops: Tuple[PlanOp, ...]
    output: int
    num_slots: int
    cache_key: Optional[str] = None
    order: Tuple[Any, ...] = ()

    @property
    def fused_ops(self) -> int:
        """How many elimination steps were fused."""
        return sum(1 for op in self.ops if isinstance(op, FusedJoinMarginalizeOp))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryPlan {self.strategy} ops={len(self.ops)} "
            f"fused={self.fused_ops} slots={self.num_slots}>"
        )


# ---------------------------------------------------------------------------
# Structural signatures + the plan cache
# ---------------------------------------------------------------------------


def structural_signature(
    query: FAQQuery,
    strategy: str,
    order: Optional[Sequence[Any]] = None,
) -> Optional[str]:
    """A sha256 content address of everything lowering depends on.

    Covers the factor names and schema *orders* (join output schemas
    follow them), free variables, bound order, per-variable aggregate
    signature, semiring name and storage backend — but never the factor
    contents, domains or seeds, which is what lets a grid sweep over
    seed/N/assignment share one plan.

    Returns ``None`` for uncacheable queries: a custom aggregate
    ``combine`` callable (unhashable semantics).
    """
    aggregates = []
    for v in sorted(query.bound_vars, key=repr):
        agg = query.aggregate_for(v)
        if agg.combine is not None:
            return None  # custom callables have no stable identity
        aggregates.append([repr(v), agg.name, agg.kind])
    payload = {
        "version": PLAN_VERSION,
        "strategy": strategy,
        "factors": [
            [name, [repr(v) for v in f.schema]]
            for name, f in query.factors.items()
        ],
        "free_vars": [repr(v) for v in query.free_vars],
        "bound_order": [repr(v) for v in query.bound_order],
        "aggregates": aggregates,
        "semiring": query.semiring.name,
        "backend": query.backend or "native",
        "order": None if order is None else [repr(v) for v in order],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class PlanCacheStats:
    """Hit/miss counters of a :class:`PlanCache` (reset with the cache)."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """An LRU cache of compiled plans keyed by structural signature.

    Per-process, like any compiled-code cache: lab workers each warm
    their own copy, and a grid sweep in one process compiles each
    structure exactly once.  Thread-safe: the serving plane's async
    front-end and its executor threads share this process's cache, so
    lookup/store/clear hold a lock (plans themselves are immutable and
    shared by reference — two threads racing on a cold key at worst
    compile the identical plan twice, last put wins).
    """

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._plans: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: Optional[str]) -> Optional[QueryPlan]:
        """Look up a plan, counting the hit/miss."""
        if key is None:
            with self._lock:
                self.stats.uncacheable += 1
            COUNTERS.increment("plan_cache.uncacheable")
            return None
        COUNTERS.increment("plan_cache.lookups")
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.misses += 1
                COUNTERS.increment("plan_cache.miss")
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
        COUNTERS.increment("plan_cache.hit")
        return plan

    def put(self, key: Optional[str], plan: QueryPlan) -> None:
        """Store a plan (no-op for uncacheable keys), evicting LRU."""
        if key is None:
            return
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        """Drop every plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.stats = PlanCacheStats()


#: The process-wide plan cache every ``solver="compiled"`` entry point uses.
PLAN_CACHE = PlanCache()


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates ops and allocates slots during lowering."""

    def __init__(self) -> None:
        self.ops: List[PlanOp] = []
        self._next = 0

    def slot(self) -> int:
        s = self._next
        self._next += 1
        return s

    def emit(self, op: PlanOp) -> int:
        self.ops.append(op)
        return op.out

    @property
    def num_slots(self) -> int:
        return self._next


def _merged_schema(a: Sequence[Any], b: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(a) + tuple(v for v in b if v not in a)


def _multi_join(
    b: _Builder, parts: Sequence[Tuple[int, Tuple[Any, ...]]]
) -> Tuple[int, Tuple[Any, ...]]:
    """Lower ``multi_join``: left-to-right pairwise joins."""
    if not parts:
        raise ValueError("multi_join requires at least one factor")
    slot, schema = parts[0]
    for other_slot, other_schema in parts[1:]:
        schema = _merged_schema(schema, other_schema)
        slot = b.emit(JoinOp(b.slot(), schema, left=slot, right=other_slot))
    return slot, schema


def _is_plain_sum(query: FAQQuery, variable: Any) -> bool:
    """True when ``variable``'s aggregate is the semiring's own ⊕ —
    the precondition for emitting a :class:`FusedJoinMarginalizeOp`."""
    agg = query.aggregate_for(variable)
    return agg.kind == "semiring" and agg.combine is None


def _eliminate(
    b: _Builder,
    query: FAQQuery,
    variable: Any,
    parts: Sequence[Tuple[int, Tuple[Any, ...]]],
) -> Tuple[int, Tuple[Any, ...]]:
    """Lower one elimination step: join ``parts``, marginalize ``variable``.

    Fuses into one op for plain-⊕ variables; otherwise an explicit
    join-then-marginalize sequence (custom semiring aggregates and
    full-domain product folds keep their operator semantics).
    """
    joined_schema: Tuple[Any, ...] = ()
    for _, schema in parts:
        joined_schema = _merged_schema(joined_schema, schema)
    out_schema = tuple(v for v in joined_schema if v != variable)
    if _is_plain_sum(query, variable):
        slot = b.emit(
            FusedJoinMarginalizeOp(
                b.slot(), out_schema,
                sources=tuple(s for s, _ in parts), variable=variable,
            )
        )
        return slot, out_schema
    slot, schema = _multi_join(b, parts)
    slot = b.emit(
        MarginalizeOp(b.slot(), out_schema, source=slot, variable=variable)
    )
    return slot, out_schema


def _load_inputs(
    b: _Builder, query: FAQQuery
) -> List[Tuple[int, Tuple[Any, ...]]]:
    """Emit one :class:`InputOp` per query factor, in listing order."""
    return [
        (
            b.emit(InputOp(b.slot(), tuple(factor.schema), factor=name)),
            tuple(factor.schema),
        )
        for name, factor in query.factors.items()
    ]


def _finish(
    b: _Builder,
    query: FAQQuery,
    slot: int,
    schema: Tuple[Any, ...],
) -> int:
    """Project onto the query's free variables when the order differs."""
    if schema != query.free_vars:
        slot = b.emit(
            ProjectOp(b.slot(), tuple(query.free_vars), source=slot)
        )
    return slot


def lower_variable_elimination(
    query: FAQQuery, order: Sequence[Any]
) -> QueryPlan:
    """Lower InsideOut-style variable elimination over ``order``.

    Mirrors :func:`repro.faq.variable_elimination.solve_variable_elimination`
    step for step (the caller resolves and validates the order).
    """
    b = _Builder()
    live = _load_inputs(b, query)
    for variable in order:
        touching = [(s, sch) for s, sch in live if variable in sch]
        rest = [(s, sch) for s, sch in live if variable not in sch]
        slot, schema = _eliminate(b, query, variable, touching)
        live = rest + [(slot, schema)]
    slot, schema = _multi_join(b, live)
    slot = _finish(b, query, slot, schema)
    return QueryPlan(
        strategy="variable-elimination",
        ops=tuple(b.ops),
        output=slot,
        num_slots=b.num_slots,
        order=tuple(order),
    )


def lower_naive(query: FAQQuery) -> QueryPlan:
    """Lower the naive solver: materialize the full join, aggregate in order.

    Deliberately unfused — the naive strategy is the semantic ground
    truth, so its plan keeps the join-then-aggregate shape literal.
    """
    b = _Builder()
    loaded = _load_inputs(b, query)
    slot, schema = _multi_join(b, loaded)
    for variable in query.elimination_order():
        if variable in schema:
            schema = tuple(v for v in schema if v != variable)
            slot = b.emit(
                MarginalizeOp(b.slot(), schema, source=slot, variable=variable)
            )
        else:
            slot = b.emit(
                AggregateAbsentOp(
                    b.slot(), schema, source=slot, variable=variable
                )
            )
    slot = _finish(b, query, slot, schema)
    return QueryPlan(
        strategy="naive",
        ops=tuple(b.ops),
        output=slot,
        num_slots=b.num_slots,
    )


# ---------------------------------------------------------------------------
# Cached entry points (what the solvers call)
# ---------------------------------------------------------------------------


def _cached_plan(
    key: Optional[str], lower: Callable[[], QueryPlan]
) -> QueryPlan:
    """The plan cached under ``key``; on a miss, ``lower()`` stamped with
    ``key`` (and cached under it unless ``key`` is ``None``)."""
    cached = PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    plan = replace(lower(), cache_key=key)
    PLAN_CACHE.put(key, plan)
    return plan


def plan_variable_elimination(
    query: FAQQuery, order: Optional[Sequence[Any]] = None
) -> QueryPlan:
    """The (cached) variable-elimination plan for ``query``.

    On a cache hit the greedy elimination order is *not* recomputed — it
    is baked into the cached plan, which is the point of keying plans by
    structure across a grid sweep.
    """

    def lower() -> QueryPlan:
        if order is not None:
            resolved: Tuple[Any, ...] = tuple(order)
        elif query.is_faq_ss():
            from .variable_elimination import greedy_elimination_order

            resolved = greedy_elimination_order(query)
        else:
            resolved = query.elimination_order()
        return lower_variable_elimination(query, resolved)

    return _cached_plan(
        structural_signature(query, "variable-elimination", order=order), lower
    )


def plan_naive(query: FAQQuery) -> QueryPlan:
    """The (cached) naive-solver plan for ``query``."""
    return _cached_plan(
        structural_signature(query, "naive"), lambda: lower_naive(query)
    )

