"""Fused columnar execution of compiled FAQ plans.

This is the data-plane half of the compiled solver (planning lives in
:mod:`repro.faq.plan`).  Three mechanisms make it faster than the
operator-at-a-time path while returning byte-identical answers:

* **Shared dictionary interning** — a per-execution
  :class:`DictionaryPool` re-codes every input factor so that all columns
  of one variable share a single dictionary object.  Dictionary encoding
  then happens once per base column (one vectorized ``np.unique`` over
  the concatenated dictionaries) instead of once per operator: every
  downstream join sees aligned code arrays and skips the per-join
  Python-loop dictionary merge entirely (``merge_dictionaries``
  short-circuits on identity).
* **Kernel fusion** — :func:`fused_join_marginalize` runs the "join all
  factors touching ``v``, then ⊕-marginalize ``v`` out" elimination step
  as chained index joins followed by one sort/``reduceat`` group-by,
  never materializing the joined factor (no intermediate
  :class:`ColumnarFactor`, no re-canonicalization, no dictionary
  merging).  Boolean factors (all annotations ``True`` by listing
  canonicality) additionally skip value arithmetic altogether and use a
  dense scatter for the grouped reduction when the code space is small.
* **Graceful fallback** — any op whose operands are not columnar (or
  whose kernel declines: un-interned dictionaries, potential ``int64``
  overflow, composite-key overflow) executes through the ordinary
  operators in :mod:`repro.faq.operations`, which are always correct.

Float caveat: for exact semirings (boolean, counting, GF(2)-free
workloads) and idempotent tropical semirings the fused kernel is
*bitwise* identical to join-then-marginalize.  For ``real``/``max-times``
with arbitrary floats the ⊕-fold order can differ in the last ulp (the
same caveat the columnar backend already carries versus the dict
backend); the paper's Table 1 scenarios are all exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import kernels
from ..obs.counters import COUNTERS
from ..obs.trace import active_tracer
from ..semiring import Factor, Semiring
from ..semiring.backend import profile_for, supports_columnar
from ..semiring.columnar import (
    ColumnarFactor,
    Dictionary,
    INT64_MAX,
    composite_key,
    empty_like,
    exact_array,
    int_values_exceed,
    sort_groups,
)
from . import operations
from .plan import (
    AggregateAbsentOp,
    FusedJoinMarginalizeOp,
    InputOp,
    JoinOp,
    MarginalizeOp,
    PlanOp,
    ProjectOp,
    QueryPlan,
)

#: Dense grouped reduction is used while the composite code space stays
#: below ``max(4 * rows, _DENSE_CAP)`` — past that, sorting wins.
_DENSE_CAP = 1 << 20


@dataclass
class ExecutionStats:
    """Counters one :func:`execute_plan` call fills in (for tests/benches).

    Attributes:
        ops: Plan ops executed.
        pooled_variables: Variables whose dictionaries were interned.
        fused_vectorized: Fused elimination steps run on the fused kernel.
        fused_fallback: Fused steps that fell back to join+marginalize.
    """

    ops: int = 0
    pooled_variables: int = 0
    fused_vectorized: int = 0
    fused_fallback: int = 0


# ---------------------------------------------------------------------------
# Shared dictionary interning
# ---------------------------------------------------------------------------


def _dictionary_array(d: list) -> Optional[np.ndarray]:
    """A homogeneous array view of a column dictionary, or ``None``.

    Dictionaries produced by the vectorized encoder carry their source
    array (:class:`~repro.semiring.columnar.Dictionary`) — homogeneity is
    then proven by provenance.  Anything else is converted here, with the
    same type discipline as ``_encode_column``: one element type among
    ``int``/``bool``/``str``/``float``, floats without NaN or ``-0.0``
    (both would break exact round-tripping).
    """
    arr = getattr(d, "array", None)
    if arr is not None:
        return arr
    types = set(map(type, d))
    if len(types) != 1:
        return None
    try:
        return exact_array(next(iter(types)), d)
    except (TypeError, ValueError, OverflowError):
        return None


def _unique_inverse(concat: np.ndarray):
    """``(uniq, inverse)`` of a concatenated column, sort-based.

    One stable argsort (radix for integer dtypes — the dictionaries being
    unioned are each already sorted runs) plus mask arithmetic; the
    inverse doubles as the per-dictionary remap once split back into the
    original segments, which is what lets interning skip a
    ``searchsorted`` per dictionary.  Runs in the active kernel tier
    (:mod:`repro.kernels`).
    """
    return kernels.encode_unique(concat)


def _superset_pool(dicts: Sequence[list], arrays: Sequence[Optional[np.ndarray]]):
    """Pool against the widest dictionary when it contains all the others.

    Filler/full-domain relations make this the common case: their
    dictionary lists the whole active domain, so the union *is* that
    dictionary.  Adopting it as the pool skips the concatenate/sort of
    the general union — and, crucially, the widest dictionary's factors
    keep their code arrays verbatim (identity remap).  Returns ``None``
    when the widest dictionary is unsorted (unknown provenance) or some
    value falls outside it.
    """
    widest = max(range(len(dicts)), key=lambda i: -1 if arrays[i] is None else len(arrays[i]))
    base_dict, base_arr = dicts[widest], arrays[widest]
    if base_arr is None or getattr(base_dict, "array", None) is None:
        return None  # sortedness is only guaranteed by encoder provenance
    top = len(base_arr) - 1
    # Dense integer dictionaries (TRIBES universes, range domains) are a
    # contiguous run: position is then plain subtraction, no binary search.
    contiguous_lo: Optional[int] = None
    if base_arr.dtype.kind in "iu":
        lo, hi = int(base_arr[0]), int(base_arr[top])
        if hi - lo == top:
            contiguous_lo = lo
    remaps: Dict[int, np.ndarray] = {}
    for d, arr in zip(dicts, arrays):
        if d is base_dict:
            continue
        if arr is None or not len(arr):
            remaps[id(d)] = np.empty(0, dtype=np.int64)
            continue
        if contiguous_lo is not None and arr.dtype.kind in "iu":
            if int(arr.min()) < contiguous_lo or int(arr.max()) > contiguous_lo + top:
                return None
            remaps[id(d)] = (arr - contiguous_lo).astype(np.int64, copy=False)
            continue
        pos = np.minimum(np.searchsorted(base_arr, arr), top)
        if not np.array_equal(base_arr[pos], arr):
            return None
        remaps[id(d)] = pos.astype(np.int64, copy=False)
    return base_dict, remaps


def _pool_dictionaries(dicts: Sequence[list]):
    """Union several column dictionaries into one, with per-dict remaps.

    Vectorized — one concatenate + sort-unique over the dictionaries'
    array views, then a ``searchsorted`` remap per dictionary — when every
    dictionary has one (see :func:`_dictionary_array`); mixed element
    types across the dictionaries, or any list without an exact array
    form, fall back to a generic first-appearance loop.  Either way the
    round trip is exact: decoding a remapped code restores the original
    value.

    Returns:
        ``(pooled, remaps)`` where ``remaps[id(d)]`` maps old codes of
        dictionary ``d`` to pooled codes.
    """
    arrays = [_dictionary_array(d) if d else None for d in dicts]
    nonempty = [a for a in arrays if a is not None and len(a)]
    # Concatenation must not change any value's decoded type: unsigned and
    # signed integers may mix (both decode to Python int), but bool/int,
    # int/float or str/numeric promotions would decode differently than
    # the originals, so those combinations take the generic loop.
    kinds = {("i" if a.dtype.kind == "u" else a.dtype.kind) for a in nonempty}
    vectorizable = len(kinds) <= 1 and all(
        a is not None or not d for a, d in zip(arrays, dicts)
    )

    if vectorizable:
        if not nonempty:
            return Dictionary(), {
                id(d): np.empty(0, dtype=np.int64) for d in dicts
            }
        pooled_remaps = _superset_pool(dicts, arrays)
        if pooled_remaps is not None:
            COUNTERS.increment("dict_pool.superset")
            return pooled_remaps
        COUNTERS.increment("dict_pool.merge")
        uniq, inverse = _unique_inverse(np.concatenate(nonempty))
        pooled = Dictionary(uniq.tolist(), array=uniq)
        remaps = {}
        offset = 0
        for d, arr in zip(dicts, arrays):
            if arr is None or not len(arr):
                remaps[id(d)] = np.empty(0, dtype=np.int64)
            else:
                remaps[id(d)] = inverse[offset:offset + len(arr)]
                offset += len(arr)
        return pooled, remaps

    COUNTERS.increment("dict_pool.generic")
    pooled_list: List[Any] = []
    index: Dict[Any, int] = {}
    remaps = {}
    for d in dicts:
        remap = np.empty(len(d), dtype=np.int64)
        for j, value in enumerate(d):
            c = index.get(value)
            if c is None:
                c = len(pooled_list)
                index[value] = c
                pooled_list.append(value)
            remap[j] = c
        remaps[id(d)] = remap
    return pooled_list, remaps


class DictionaryPool:
    """Per-execution dictionary interning: one dictionary per variable.

    After :meth:`intern_factors`, every column of a shared variable
    references the *same* dictionary object, so code arrays are aligned
    across all operators of the execution: joins build composite keys
    directly from the codes and ``merge_dictionaries`` degenerates to an
    identity remap.  Variables occurring in a single factor are left
    untouched (there is nothing to align).
    """

    def __init__(self) -> None:
        #: variable -> the pooled dictionary every column now shares.
        self.dictionaries: Dict[Any, list] = {}

    def __len__(self) -> int:
        return len(self.dictionaries)

    def intern_factors(
        self, factors: Mapping[str, ColumnarFactor]
    ) -> Dict[str, ColumnarFactor]:
        """Re-code ``factors`` against per-variable pooled dictionaries."""
        by_var: Dict[Any, List[list]] = {}
        for f in factors.values():
            for v, d in zip(f.schema, f.dictionaries):
                by_var.setdefault(v, []).append(d)

        # The remaps below (here and in ``_pool_dictionaries`` /
        # ``_superset_pool``) are keyed on id(dictionary).  Every keyed
        # list is a member of some ``f.dictionaries`` of the ``factors``
        # argument and of ``by_var``, both alive until this method
        # returns, and the remaps do not outlive it — no id is reused.
        remaps: Dict[Any, Dict[int, np.ndarray]] = {}
        for v, dicts in by_var.items():
            if len(dicts) < 2:
                continue
            distinct = list({id(d): d for d in dicts}.values())
            if len(distinct) == 1:
                self.dictionaries[v] = distinct[0]
                continue
            pooled, var_remaps = _pool_dictionaries(distinct)
            self.dictionaries[v] = pooled
            remaps[v] = var_remaps

        out: Dict[str, ColumnarFactor] = {}
        for name, f in factors.items():
            new_codes = list(f.codes)
            new_dicts = list(f.dictionaries)
            changed = False
            for i, (v, d) in enumerate(zip(f.schema, f.dictionaries)):
                pooled = self.dictionaries.get(v)
                if pooled is None or pooled is d:
                    continue
                new_codes[i] = remaps[v][id(d)][f.codes[i]]
                new_dicts[i] = pooled
                changed = True
            out[name] = (
                ColumnarFactor._from_arrays(
                    f.schema, new_codes, new_dicts, f.values, f.semiring, f.name
                )
                if changed
                else f
            )
        return out


# ---------------------------------------------------------------------------
# The fused elimination kernel
# ---------------------------------------------------------------------------


def _grouped_reduce_columns(
    out_schema: Tuple[Any, ...],
    cols: Mapping[Any, np.ndarray],
    dicts: Mapping[Any, list],
    values: Optional[np.ndarray],
    n: int,
    profile,
    semiring: Semiring,
) -> Optional[ColumnarFactor]:
    """Group loose code columns by ``out_schema`` and ⊕-reduce each group.

    ``values is None`` flags the Boolean all-``True`` fast path: the
    reduction is then pure key deduplication, done densely (scatter into
    a mark array over the composite code space) when the space is small
    and by sort otherwise.
    """
    out_dicts = [dicts[v] for v in out_schema]
    if n == 0:
        return empty_like(out_schema, out_dicts, semiring, None)
    columns = [cols[v] for v in out_schema]
    cards = [max(len(d), 1) for d in out_dicts]

    if values is None:
        space = 1
        for card in cards:
            space *= card
        key = composite_key(columns, cards, n)
        if key is not None and space <= max(4 * n, _DENSE_CAP):
            mark = np.zeros(space, dtype=bool)
            mark[key] = True
            out_keys = np.flatnonzero(mark)
            if len(cards) <= 1:
                out_codes: List[np.ndarray] = [out_keys] if cards else []
            else:
                out_codes = []
                rem = out_keys
                for card in reversed(cards):
                    out_codes.append(rem % card)
                    rem = rem // card
                out_codes.reverse()
            reduced = np.ones(len(out_keys), dtype=np.bool_)
        else:
            order, starts = sort_groups(columns, cards, n)
            representatives = order[starts]
            out_codes = [c[representatives] for c in columns]
            reduced = np.ones(len(starts), dtype=np.bool_)
        return ColumnarFactor._from_arrays(
            out_schema, out_codes, out_dicts, reduced, semiring, None
        )

    if int_values_exceed(profile, values, INT64_MAX // n):
        return None
    order, starts = sort_groups(columns, cards, n)
    reduced = kernels.grouped_reduce(values, order, starts, profile.add)
    representatives = order[starts]
    out_codes = [c[representatives] for c in columns]
    zero = profile.is_zero_mask(reduced)
    if zero.any():
        keep = ~zero
        reduced = reduced[keep]
        out_codes = [c[keep] for c in out_codes]
    return ColumnarFactor._from_arrays(
        out_schema, out_codes, out_dicts, reduced, semiring, None
    )


def fused_join_marginalize(
    factors: Sequence[ColumnarFactor],
    variable: Any,
    out_schema: Sequence[Any],
    semiring: Semiring,
) -> Optional[ColumnarFactor]:
    """Join ``factors`` left to right and ⊕-marginalize ``variable`` out —
    in one pass, without materializing the joined factor.

    Equivalent to ``marginalize(multi_join(factors), variable)`` for the
    semiring's own ⊕ (the only aggregate lowering fuses).  Requires the
    operands' shared-variable dictionaries to be interned (identical
    objects); returns ``None`` whenever it cannot run exactly —
    un-interned dictionaries, composite-key overflow, possible ``int64``
    overflow — and the caller falls back to the unfused operators.
    """
    try:
        profile = profile_for(semiring)
    except ValueError:
        return None
    out_schema = tuple(out_schema)

    # Boolean listings are canonically all-True: skip value arithmetic and
    # reduce by pure key deduplication.
    boolean_mode = profile.dtype is np.bool_ and all(
        bool(f.values.all()) for f in factors
    )

    # Star-center pattern: every factor unary over the eliminated variable
    # itself (the shape every arm elimination leaves behind).  The fused
    # join+⊕ collapses to a dense presence intersection — no sorting, no
    # match expansion.
    if (
        boolean_mode
        and not out_schema
        and len(factors) > 1
        and all(f.schema == (variable,) for f in factors)
    ):
        dictionary = factors[0].dictionaries[0]
        if any(f.dictionaries[0] is not dictionary for f in factors[1:]):
            return None  # not interned: fall back to the unfused operators
        card = max(len(dictionary), 1)
        present = np.zeros(card, dtype=bool)
        if len(factors[0]):
            present[factors[0].codes[0]] = True
        for f in factors[1:]:
            mask = np.zeros(card, dtype=bool)
            if len(f):
                mask[f.codes[0]] = True
            present &= mask
        values_out = np.ones(1 if present.any() else 0, dtype=np.bool_)
        return ColumnarFactor._from_arrays(
            (), [], [], values_out, semiring, None
        )

    first = factors[0]
    schema: List[Any] = list(first.schema)
    cols: Dict[Any, np.ndarray] = dict(zip(first.schema, first.codes))
    dicts: Dict[Any, list] = dict(zip(first.schema, first.dictionaries))
    values: Optional[np.ndarray] = None if boolean_mode else first.values
    n = len(first)

    for f in factors[1:]:
        shared = [v for v in schema if v in f.schema]
        f_dicts = dict(zip(f.schema, f.dictionaries))
        if any(dicts[v] is not f_dicts[v] for v in shared):
            return None  # not interned: the unfused path merges correctly
        if (
            values is not None
            and np.issubdtype(profile.dtype, np.integer)
            and n
            and len(f)
        ):
            left_max = int(np.abs(values).max())
            right_max = int(np.abs(f.values).max())
            if left_max and right_max and left_max > INT64_MAX // right_max:
                return None
        cards = [len(dicts[v]) for v in shared]
        left_key = composite_key([cols[v] for v in shared], cards, n)
        right_key = composite_key(
            [f.codes[f.column_index(v)] for v in shared], cards, len(f)
        )
        if left_key is None or right_key is None:
            return None
        left_idx, right_idx = kernels.match_indices(left_key, right_key)
        if values is not None:
            joined = profile.mul(values[left_idx], f.values[right_idx])
            zero = profile.is_zero_mask(joined)
            if zero.any():
                keep = ~zero
                left_idx, right_idx = left_idx[keep], right_idx[keep]
                joined = joined[keep]
            values = joined
        new_cols = {v: cols[v][left_idx] for v in schema}
        for i, w in enumerate(f.schema):
            if w not in new_cols:
                new_cols[w] = f.codes[i][right_idx]
                dicts[w] = f.dictionaries[i]
                schema.append(w)
        cols = new_cols
        n = len(left_idx)

    return _grouped_reduce_columns(
        out_schema, cols, dicts, values, n, profile, semiring
    )


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


def execute_plan(
    plan: QueryPlan,
    query,
    stats: Optional[ExecutionStats] = None,
) -> Factor:
    """Run a compiled plan against the query's factors.

    Inputs are pool-interned once when the whole query is columnar over a
    supported semiring; each op then prefers its vectorized kernel and
    falls back to the generic operators in :mod:`repro.faq.operations`
    whenever a kernel declines.  Returns the factor in the plan's output
    slot (over the query's free variables, like every solver).
    """
    semiring = query.semiring
    factors: Mapping[str, Factor] = query.factors
    columnar = supports_columnar(semiring) and all(
        isinstance(f, ColumnarFactor) for f in factors.values()
    )
    if columnar:
        tracer = active_tracer()
        pool = DictionaryPool()
        intern_start = time.perf_counter()
        inputs: Mapping[str, Factor] = pool.intern_factors(factors)
        if tracer is not None:
            tracer.phase_timer("intern", time.perf_counter() - intern_start)
        if stats is not None:
            stats.pooled_variables = len(pool)
    else:
        inputs = factors

    env: List[Optional[Factor]] = [None] * plan.num_slots
    for op in plan.ops:
        if stats is not None:
            stats.ops += 1
        env[op.out] = _run_op(op, env, inputs, query, columnar, stats)
    result = env[plan.output]
    assert result is not None
    return result


def _run_op(
    op: PlanOp,
    env: List[Optional[Factor]],
    inputs: Mapping[str, Factor],
    query,
    columnar: bool,
    stats: Optional[ExecutionStats],
) -> Factor:
    """Execute one plan op (vectorized when possible, generic otherwise)."""
    semiring = query.semiring
    if isinstance(op, InputOp):
        return inputs[op.factor]
    if isinstance(op, FusedJoinMarginalizeOp):
        parts = [env[s] for s in op.sources]
        result: Optional[Factor] = None
        if columnar and all(isinstance(p, ColumnarFactor) for p in parts):
            result = fused_join_marginalize(
                parts, op.variable, op.schema, semiring
            )
        if result is not None:
            COUNTERS.increment("solver.fused_vectorized")
            if stats is not None:
                stats.fused_vectorized += 1
            return result
        COUNTERS.increment("solver.fused_fallback")
        if stats is not None:
            stats.fused_fallback += 1
        return operations.marginalize(
            operations.multi_join(parts), op.variable, semiring.add
        )
    if isinstance(op, JoinOp):
        return operations.join(env[op.left], env[op.right])
    if isinstance(op, ProjectOp):
        return operations.project(env[op.source], op.schema)
    if isinstance(op, MarginalizeOp):
        aggregate = query.aggregate_for(op.variable)
        combine = aggregate.resolve(semiring)
        full_domain = (
            query.domains[op.variable] if aggregate.needs_full_domain else None
        )
        return operations.marginalize(
            env[op.source], op.variable, combine, full_domain
        )
    if isinstance(op, AggregateAbsentOp):
        aggregate = query.aggregate_for(op.variable)
        combine = aggregate.resolve(semiring)
        return operations.aggregate_absent_variable(
            env[op.source],
            combine,
            len(query.domains[op.variable]),
            aggregate.needs_full_domain,
        )
    raise TypeError(f"unknown plan op {type(op).__name__}")
