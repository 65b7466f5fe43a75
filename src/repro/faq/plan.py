"""The solver axis and the elimination-order cache of the compiled solver.

Both FAQ solvers run the same variable-elimination loop
(:func:`repro.faq.variable_elimination.solve_variable_elimination`).
``solver="compiled"`` differs in three places: it pool-interns the
inputs once, sends every plain-⊕ elimination step to the fused
join+marginalize kernel (:mod:`repro.faq.executor`), and takes its
elimination order from :data:`PLAN_CACHE` instead of recomputing it.

The cache is keyed by the *structural* signature of the query — factor
schemas, free variables, bound order, aggregate signature, semiring name
and storage backend, never the data — so a lab grid sweep that varies
only seed/N/assignment computes the greedy order once per structure.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from ..obs.counters import COUNTERS
from .query import FAQQuery

#: Part of every cache key; bump when what a key resolves to changes
#: meaning, so stale entries miss instead of replaying it.
PLAN_VERSION = 1

#: The FAQ solver execution strategies: ``"operator"`` evaluates operator
#: at a time through :mod:`repro.faq.operations`; ``"compiled"`` interns
#: the inputs, fuses each plain-⊕ elimination step into one kernel and
#: reuses the cached elimination order.  Both produce identical answers.
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
# Structural signatures + the order cache
# ---------------------------------------------------------------------------


def structural_signature(
    query: FAQQuery,
    strategy: str,
    order: Optional[Sequence[Any]] = None,
) -> Optional[str]:
    """A sha256 content address of everything the cached order depends on.

    Covers the factor names and schema *orders* (join output schemas
    follow them), free variables, bound order, per-variable aggregate
    signature, semiring name and storage backend — but never the factor
    contents, domains or seeds, which is what lets a grid sweep over
    seed/N/assignment share one entry.

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
    """An LRU cache of elimination orders keyed by structural signature.

    Per-process: lab workers each warm their own copy, and a grid sweep
    in one process resolves each structure's order exactly once.
    Thread-safe: the serving plane's async front-end and its executor
    threads share this process's cache, so lookup/store/clear hold a
    lock (orders are immutable tuples shared by reference — two threads
    racing on a cold key at worst resolve the same order twice, last put
    wins).
    """

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._orders: "OrderedDict[str, Tuple[Any, ...]]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._orders)

    def get(self, key: Optional[str]) -> Optional[Tuple[Any, ...]]:
        """Look up an order, counting the hit/miss."""
        if key is None:
            with self._lock:
                self.stats.uncacheable += 1
            COUNTERS.increment("plan_cache.uncacheable")
            return None
        COUNTERS.increment("plan_cache.lookups")
        with self._lock:
            order = self._orders.get(key)
            if order is None:
                self.stats.misses += 1
                COUNTERS.increment("plan_cache.miss")
                return None
            self._orders.move_to_end(key)
            self.stats.hits += 1
        COUNTERS.increment("plan_cache.hit")
        return order

    def put(self, key: Optional[str], order: Tuple[Any, ...]) -> None:
        """Store an order (no-op for uncacheable keys), evicting LRU."""
        if key is None:
            return
        with self._lock:
            self._orders[key] = order
            self._orders.move_to_end(key)
            while len(self._orders) > self.maxsize:
                self._orders.popitem(last=False)

    def clear(self) -> None:
        """Drop every order and reset the counters."""
        with self._lock:
            self._orders.clear()
            self.stats = PlanCacheStats()


#: The process-wide order cache every ``solver="compiled"`` solve uses.
PLAN_CACHE = PlanCache()


def cached_elimination_order(
    query: FAQQuery,
    order: Optional[Sequence[Any]],
    resolve: Callable[[], Tuple[Any, ...]],
) -> Tuple[Any, ...]:
    """The elimination order cached for ``query``'s structure and the
    caller's ``order``; on a miss, ``resolve()`` — stored unless the
    query is uncacheable."""
    key = structural_signature(query, "variable-elimination", order=order)
    cached = PLAN_CACHE.get(key)
    if cached is None:
        cached = resolve()
        PLAN_CACHE.put(key, cached)
    return cached
