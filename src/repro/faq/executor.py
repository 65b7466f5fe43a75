"""The data plane of the compiled FAQ solver.

``solver="compiled"`` runs the same elimination loop as the operator
solver (:mod:`repro.faq.variable_elimination`); this module holds what
it does differently, through two entry points — :func:`intern_inputs`
and :func:`eliminate_fused`.  Three mechanisms make it faster than the
operator-at-a-time path while returning byte-identical answers:

* **Shared dictionary interning** — a per-solve
  :class:`DictionaryPool` re-codes every input factor so that all columns
  of one variable share a single dictionary object.  Dictionary encoding
  then happens once per base column (one vectorized ``np.unique`` over
  the concatenated dictionaries) instead of once per operator: every
  downstream join sees aligned code arrays and skips the per-join
  Python-loop dictionary merge entirely (``merge_dictionaries``
  short-circuits on identity).
* **Kernel fusion** — :func:`fused_join_marginalize` runs the "join all
  factors touching ``v``, then ⊕-marginalize ``v`` out" elimination step
  as chained :func:`~repro.semiring.columnar.join_step` calls followed
  by one :func:`~repro.semiring.columnar.group_reduce`, never
  materializing the joined factor (no intermediate
  :class:`ColumnarFactor`, no re-canonicalization, no dictionary
  merging).  Boolean factors (all annotations ``True`` by listing
  canonicality) additionally skip value arithmetic altogether, which
  turns the group-by into key deduplication.  The join, group-by, int64
  guard and dictionary view are the operator solver's own: the table of
  columnar kernels in ``docs/architecture.md`` lists them.
* **Graceful fallback** — any step whose operands are not columnar (or
  whose kernel declines: un-interned dictionaries, potential ``int64``
  overflow, composite-key overflow) executes through the ordinary
  operators' elimination step,
  :func:`~repro.faq.operations.join_marginalize`, which is always
  correct.

Float caveat: for exact semirings (boolean, counting, GF(2)-free
workloads) and idempotent tropical semirings the fused kernel is
*bitwise* identical to join-then-marginalize.  For ``real``/``max-times``
with arbitrary floats the ⊕-fold order can differ in the last ulp (the
same caveat the columnar backend already carries versus the dict
backend); the paper's Table 1 scenarios are all exact.
"""

from __future__ import annotations

import time
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
    dictionary_array,
    group_reduce,
    join_step,
)
from . import operations


# ---------------------------------------------------------------------------
# Shared dictionary interning
# ---------------------------------------------------------------------------


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
    dictionary has one (see
    :func:`~repro.semiring.columnar.dictionary_array`); mixed element
    types across the dictionaries, or any list without an exact array
    form, fall back to a generic first-appearance loop.  Either way the
    round trip is exact: decoding a remapped code restores the original
    value.

    Returns:
        ``(pooled, remaps)`` where ``remaps[id(d)]`` maps old codes of
        dictionary ``d`` to pooled codes.
    """
    arrays = [dictionary_array(d) if d else None for d in dicts]
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
        uniq, inverse = kernels.encode_unique(np.concatenate(nonempty))
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
    """Per-solve dictionary interning: one dictionary per variable.

    After :meth:`intern_factors`, every column of a shared variable
    references the *same* dictionary object, so code arrays are aligned
    across all operators of the solve: joins build composite keys
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


def fused_join_marginalize(
    factors: Sequence[ColumnarFactor],
    variable: Any,
    semiring: Semiring,
) -> Optional[ColumnarFactor]:
    """Join ``factors`` left to right and ⊕-marginalize ``variable`` out —
    in one pass, without materializing the joined factor.

    Equivalent to ``marginalize(multi_join(factors), variable)``, schema
    order included, for the semiring's own ⊕ (the only aggregate the
    solver fuses).  Requires the
    operands' shared-variable dictionaries to be interned (identical
    objects); returns ``None`` whenever it cannot run exactly —
    un-interned dictionaries, composite-key overflow, possible ``int64``
    overflow — and the caller falls back to the unfused operators.
    """
    try:
        profile = profile_for(semiring)
    except ValueError:
        return None

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
        step = join_step(
            [cols[v] for v in shared],
            [f.codes[f.column_index(v)] for v in shared],
            [len(dicts[v]) for v in shared],
            n, len(f), profile, values, f.values,
        )
        if step is None:
            return None
        left_idx, right_idx, values = step
        new_cols = {v: cols[v][left_idx] for v in schema}
        for i, w in enumerate(f.schema):
            if w not in new_cols:
                new_cols[w] = f.codes[i][right_idx]
                dicts[w] = f.dictionaries[i]
                schema.append(w)
        cols = new_cols
        n = len(left_idx)

    out_schema = [v for v in schema if v != variable]
    return group_reduce(
        out_schema, [cols[v] for v in out_schema], [dicts[v] for v in out_schema],
        values, n, semiring,
    )


# ---------------------------------------------------------------------------
# The compiled solver's two entry points
# ---------------------------------------------------------------------------


def intern_inputs(query) -> Tuple[Mapping[str, Factor], bool]:
    """The query's factors, pool-interned once when the whole query is
    columnar over a supported semiring.

    Returns ``(factors, interned)``; ``interned`` is what lets
    :func:`eliminate_fused` try the fused kernel at all.
    """
    factors: Mapping[str, Factor] = query.factors
    if not supports_columnar(query.semiring) or not all(
        isinstance(f, ColumnarFactor) for f in factors.values()
    ):
        return factors, False
    tracer = active_tracer()
    intern_start = time.perf_counter()
    interned = DictionaryPool().intern_factors(factors)
    if tracer is not None:
        tracer.phase_timer("intern", time.perf_counter() - intern_start)
    return interned, True


def eliminate_fused(
    parts: Sequence[Factor],
    variable: Any,
    semiring: Semiring,
    interned: bool,
) -> Factor:
    """Join ``parts`` and ⊕-marginalize ``variable`` out — on the fused
    kernel when the inputs were interned and it accepts the operands,
    otherwise through the ordinary operators' elimination step,
    :func:`~repro.faq.operations.join_marginalize` (counted either way)."""
    result: Optional[Factor] = None
    if interned and all(isinstance(p, ColumnarFactor) for p in parts):
        result = fused_join_marginalize(parts, variable, semiring)
    if result is not None:
        COUNTERS.increment("solver.fused_vectorized")
        return result
    COUNTERS.increment("solver.fused_fallback")
    return operations.join_marginalize(parts, variable, semiring.add)
