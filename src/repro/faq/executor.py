"""The data plane of the compiled FAQ solver.

``solver="compiled"`` runs the same elimination loop as the operator
solver (:mod:`repro.faq.variable_elimination`) over the query's interned
factors (:meth:`~repro.faq.query.FAQQuery.interned_factors`: every column
of one variable shares one dictionary object, made once per query);
this module holds what it does differently, :func:`eliminate_fused`.
Two mechanisms make it faster than the operator-at-a-time path while
returning byte-identical answers:

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
  whose kernel declines: dictionaries not shared, potential ``int64``
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

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..obs.counters import COUNTERS
from ..semiring import Factor, Semiring
from ..semiring.backend import profile_for
from ..semiring.columnar import ColumnarFactor, group_reduce, join_step
from . import operations


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
    dictionaries not shared, composite-key overflow, possible ``int64``
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


def eliminate_fused(
    parts: Sequence[Factor], variable: Any, semiring: Semiring
) -> Factor:
    """Join ``parts`` and ⊕-marginalize ``variable`` out — on the fused
    kernel when the parts are columnar and it accepts them, otherwise
    through the ordinary operators' elimination step,
    :func:`~repro.faq.operations.join_marginalize` (counted either way)."""
    result: Optional[Factor] = None
    if all(isinstance(p, ColumnarFactor) for p in parts):
        result = fused_join_marginalize(parts, variable, semiring)
    if result is not None:
        COUNTERS.increment("solver.fused_vectorized")
        return result
    COUNTERS.increment("solver.fused_fallback")
    return operations.join_marginalize(parts, variable, semiring.add)
