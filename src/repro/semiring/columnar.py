"""Columnar factors: the NumPy data plane for the numeric semirings.

A :class:`ColumnarFactor` stores an ``n``-row factor as

* one ``int64`` *code* array per schema variable, dictionary-encoding
  arbitrary hashable domain values (code ``c`` of variable ``v`` decodes
  via ``dictionary(v)[c]``), and
* one annotation array in the dtype of the semiring's
  :class:`~repro.semiring.backend.VectorProfile`.

It is a :class:`~repro.semiring.factor.Factor` subclass with the same
public surface — the ``rows`` dict is materialized lazily and cached — so
every dict-path consumer (protocols, solvers, equality) keeps working
unchanged.

This module also holds the one copy of each columnar kernel job —
:func:`join_step`, :func:`group_reduce`, :func:`probe`,
:func:`product_overflows`, :func:`dictionary_array` — for the operator
solver, the compiled solver and the compiled engine's Phase B alike
(``docs/architecture.md`` has the table of jobs and callers).  Kernels
return ``None`` when they cannot run exactly (the composite key or an
integer annotation would overflow ``int64``); callers then fall back to
the generic dict path, which is always correct.

Row tuples inside a :class:`ColumnarFactor` are unique (the kernels only
ever produce unique rows from unique inputs, the constructors go through
the canonicalizing :class:`Factor` dict first, and ``from_columns``
callers hand over canonical listings), and annotations
never equal the semiring zero — the same canonical listing representation
the dict backend maintains.
"""

from __future__ import annotations

import math
import types
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import kernels
from .backend import (
    BACKEND_COLUMNAR,
    VectorProfile,
    profile_for,
    supports_columnar,
)
from .factor import Factor, Tuple_
from .semirings import BOOLEAN, Semiring

# Composite keys are built in mixed radix; cap the radix product at 2**62
# so ``key * card + code`` can never overflow a signed 64-bit integer.
_MAX_RADIX = 2 ** 62

# Integer-profile annotations (COUNTING) live in int64, where NumPy wraps
# silently on overflow — a wrapped product hitting 0 would even be dropped
# as a "zero" row.  Kernels bound the worst-case result magnitude up front
# and return None (dict fallback, exact Python ints) when it could overflow.
INT64_MAX = 2 ** 63 - 1

#: Boolean key deduplication scatters into a dense mark array while the
#: composite code space stays below ``max(4 * rows, _DENSE_CAP)`` — past
#: that, sorting wins.
_DENSE_CAP = 1 << 20


class ColumnarFactor(Factor):
    """A factor whose rows live in per-variable NumPy code arrays.

    Accepts the same ``(schema, rows, semiring, name)`` constructor as
    :class:`Factor` (rows are canonicalized through the dict representation
    first, then encoded), so the inherited ``from_tuples`` /
    ``constant_one`` classmethods work unchanged.  Use
    :meth:`from_factor` to convert an existing factor,
    :meth:`from_columns` to encode a canonical listing with no dict, and
    :meth:`_from_arrays` (internal) to wrap pre-built arrays.

    The exposed ``codes`` / ``dictionaries`` / ``values`` buffers are
    shared, not copied, between derived factors: treat them as immutable.

    Raises:
        ValueError: if the semiring has no vector profile (exotic
            semirings stay on the dict backend; see
            :func:`repro.semiring.backend.to_backend` for the graceful
            conversion).
    """

    __slots__ = ("_codes", "_dicts", "_values", "_rows_cache")

    def __init__(
        self,
        schema: Sequence[str],
        rows: Mapping[Tuple_, Any] | Iterable[Tuple[Tuple_, Any]] = (),
        semiring: Semiring = BOOLEAN,
        name: str | None = None,
    ) -> None:
        base = ColumnarFactor.from_factor(Factor(schema, rows, semiring, name))
        self._adopt(
            base.schema, base._codes, base._dicts, base._values, semiring,
            base.name,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_factor(cls, factor: Factor) -> "ColumnarFactor":
        """Encode any factor columnar (identity on columnar inputs)."""
        if isinstance(factor, ColumnarFactor):
            return factor
        return cls.from_columns(
            factor.schema, _transpose(list(factor.rows), len(factor.schema)),
            list(factor.rows.values()), factor.semiring, factor.name,
        )

    @classmethod
    def from_columns(
        cls,
        schema: Sequence[str],
        columns: Sequence[Sequence[Any]],
        values: Sequence[Any],
        semiring: Semiring = BOOLEAN,
        name: str | None = None,
    ) -> "ColumnarFactor":
        """Rows ``zip(*columns)`` annotated ``values``, encoded without a
        dict: exactly :meth:`from_factor` of that listing, which must be
        canonical already (distinct rows, no zero annotation)."""
        values = np.asarray(values, dtype=profile_for(semiring).dtype)
        codes, dicts = _encode_columns(columns, len(values))
        return cls._from_arrays(schema, codes, dicts, values, semiring, name)

    @classmethod
    def _from_arrays(
        cls,
        schema: Sequence[str],
        codes: Sequence[np.ndarray],
        dicts: Sequence[List[Any]],
        values: np.ndarray,
        semiring: Semiring,
        name: str | None = None,
    ) -> "ColumnarFactor":
        """Wrap pre-built arrays without re-canonicalizing (kernel use)."""
        self = object.__new__(cls)
        self._adopt(tuple(schema), codes, dicts, values, semiring, name)
        return self

    def _adopt(self, schema, codes, dicts, values, semiring, name) -> None:
        schema = tuple(schema)
        if len(set(schema)) != len(schema):
            # Same invariant Factor.__init__ enforces; kernels and rename()
            # route through here, so the backends fail identically.
            raise ValueError(f"schema has duplicate variables: {schema}")
        self.schema = schema
        self.semiring = semiring
        self.name = name
        self._codes = tuple(
            np.ascontiguousarray(c, dtype=np.int64) for c in codes
        )
        # Dictionaries are shared by reference between derived factors
        # (immutable by convention, per the class docstring).  Instances
        # of list subclasses (e.g. the array-carrying Dictionary) pass
        # through unchanged.
        self._dicts = tuple(d if isinstance(d, list) else list(d) for d in dicts)
        self._values = values
        self._rows_cache = None

    # ------------------------------------------------------------------
    # Columnar surface
    # ------------------------------------------------------------------
    @property
    def codes(self) -> Tuple[np.ndarray, ...]:
        """Per-schema-variable ``int64`` code arrays (treat as immutable)."""
        return self._codes

    @property
    def dictionaries(self) -> Tuple[List[Any], ...]:
        """Per-variable code -> domain-value lists (treat as immutable)."""
        return self._dicts

    @property
    def values(self) -> np.ndarray:
        """The annotation array (treat as immutable)."""
        return self._values

    @property
    def backend(self) -> str:
        return BACKEND_COLUMNAR

    def dictionary(self, var: str) -> List[Any]:
        """The dictionary (code -> value list) of one schema variable."""
        return self._dicts[self.column_index(var)]

    def to_dict_factor(self, name: str | None = None) -> Factor:
        """Decode into a plain dict-backed :class:`Factor`."""
        out = Factor(self.schema, semiring=self.semiring, name=name or self.name)
        out.rows = dict(self.rows)
        return out

    # ------------------------------------------------------------------
    # Factor surface (overridden where the dict would be materialized
    # needlessly; everything else inherits and reads ``rows`` lazily)
    # ------------------------------------------------------------------
    @property
    def rows(self):
        """A read-only row mapping, decoded lazily from the columns.

        Read-only because the arrays are the authoritative storage here —
        mutating a returned dict (which *is* valid on the base ``Factor``)
        would silently desync from the codes/values the kernels read.
        """
        if self._rows_cache is None:
            values = self._values.tolist()
            if not self.schema:
                decoded = {(): v for v in values}
            else:
                columns = [
                    [d[c] for c in codes.tolist()]
                    for codes, d in zip(self._codes, self._dicts)
                ]
                decoded = {
                    tuple(col[i] for col in columns): values[i]
                    for i in range(len(values))
                }
            self._rows_cache = types.MappingProxyType(decoded)
        return self._rows_cache

    def __len__(self) -> int:
        return len(self._values)

    def active_domain(self, var: str) -> set:
        return set(self.used_values(var))

    def used_values(self, var: str) -> List[Any]:
        """The dictionary entries some row's code points at: the
        dictionary itself (treat as immutable) when every entry is
        used."""
        i = self.column_index(var)
        d = self._dicts[i]
        # Mark the codes in use (O(n), no sort), then decode only those.
        used = np.zeros(len(d), dtype=bool)
        used[self._codes[i]] = True
        if used.all():
            return d
        array = getattr(d, "array", None)
        if array is not None:
            return array[used].tolist()
        return [d[c] for c in np.flatnonzero(used).tolist()]

    def size_bits(self, bits_per_tuple: int) -> int:
        return len(self._values) * bits_per_tuple

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "ColumnarFactor":
        new_schema = tuple(mapping.get(v, v) for v in self.schema)
        return ColumnarFactor._from_arrays(
            new_schema, self._codes, self._dicts, self._values,
            self.semiring, name or self.name,
        )

    def copy(self, name: str | None = None) -> "ColumnarFactor":
        return ColumnarFactor._from_arrays(
            self.schema, self._codes, self._dicts, self._values,
            self.semiring, name or self.name,
        )

    def with_semiring(self, semiring: Semiring, convert=None) -> Factor:
        """Reinterpret in another semiring, staying columnar when possible.

        Falls back to the dict result for unsupported target semirings or
        converted annotations outside the vector profile's integer range —
        the same graceful degradation :func:`to_backend` provides.
        """
        out = super().with_semiring(semiring, convert)
        if supports_columnar(semiring):
            try:
                return ColumnarFactor.from_factor(out)
            except OverflowError:
                return out
        return out


# ---------------------------------------------------------------------------
# Encoding helpers
# ---------------------------------------------------------------------------


class Dictionary(list):
    """A code -> value list that remembers the array it was decoded from.

    Dictionaries built by the vectorized ``np.unique`` encoder are plain
    value lists *derived from* a homogeneous NumPy array; keeping that
    array alongside lets :func:`intern_factors` union dictionaries with
    one concatenate+sort instead of re-converting (and re-type-checking)
    the Python lists.  ``array`` is ``None`` for
    dictionaries of unknown provenance; consumers must fall back to the
    list contents then.  Behaves as (and compares equal to) the plain
    list everywhere else.
    """

    __slots__ = ("_array",)

    def __init__(self, values=(), array: Optional[np.ndarray] = None) -> None:
        super().__init__(values)
        self._array = array

    @property
    def array(self) -> Optional[np.ndarray]:
        """The cached homogeneous array view (treat as immutable)."""
        return self._array


#: NumPy dtype kinds that round-trip each homogeneous Python element type
#: exactly.  The kind must MATCH the element type: a huge-int column that
#: NumPy silently promotes to float64 (values >= 2**63) would otherwise
#: slip through as kind "f" and decode lossily.
_EXACT_KINDS = {int: "iu", bool: "b", str: "U", float: "f"}


def dictionary_array(values: Sequence[Any]) -> Optional[np.ndarray]:
    """The exact-round-trip array view of a dictionary or column, or ``None``.

    An encoder-built :class:`Dictionary` carries its array, and a 1-D
    array of an exact kind is its own view.  Anything
    else must hold one element type with an exact NumPy mapping; ``None``
    when it does not, when the conversion promoted (``int`` -> float64),
    when it holds floats that break dictionary-key semantics (NaN:
    ``nan != nan``; ``-0.0``: ``np.unique`` may pick a different sign
    representative than the first-appearance loop), or strings ending in
    NUL, which NumPy's fixed-width strings silently strip.
    """
    arr = getattr(values, "array", None)
    if arr is not None:
        return arr
    if isinstance(values, np.ndarray):
        # Already typed: its elements are NumPy scalars, so the dtype
        # kind, not the element type, says whether it round-trips.
        arr, kinds = values, "iubfU"
    else:
        elem_types = set(map(type, values))
        if len(elem_types) != 1:
            return None
        kinds = _EXACT_KINDS.get(elem_types.pop())
        if kinds is None:
            return None
        try:
            arr = np.asarray(values)
        except (TypeError, ValueError, OverflowError):
            return None
    if arr.ndim != 1 or arr.dtype.kind not in kinds:
        return None
    if arr.dtype.kind == "f" and (
        np.isnan(arr).any() or bool(((arr == 0.0) & np.signbit(arr)).any())
    ):
        return None
    if arr.dtype.kind == "U" and (
        int(np.char.str_len(arr).sum()) != sum(map(len, values))
    ):
        return None
    return arr


def _encode_column(col: Sequence[Any], n: int):
    """Dictionary-encode one column into (int64 codes, dictionary list).

    Vectorized via ``np.unique`` for columns with an exact array view
    (:func:`dictionary_array`; the dictionary then lists values in sorted
    order — any coding is valid, decoding restores the original values
    exactly); every other column — mixed types, tuples, arbitrary
    hashables — takes the generic first-appearance loop, whose round trip
    is exact by construction.
    """
    arr = dictionary_array(col)
    if arr is not None:
        uniq, inverse = np.unique(arr, return_inverse=True)
        return (
            inverse.reshape(-1).astype(np.int64, copy=False),
            Dictionary(uniq.tolist(), array=uniq),
        )
    dictionary: List[Any] = []
    code_map: dict = {}
    codes = np.empty(n, dtype=np.int64)
    for i, x in enumerate(col):
        c = code_map.get(x)
        if c is None:
            c = len(dictionary)
            code_map[x] = c
            dictionary.append(x)
        codes[i] = c
    return codes, dictionary


def _encode_columns(columns: Sequence[Sequence[Any]], n: int):
    """Dictionary-encode ``n`` rows given column-wise into per-column
    (codes, dictionary)."""
    if n == 0:
        return (
            [np.empty(0, dtype=np.int64) for _ in columns],
            [[] for _ in columns],
        )
    codes: List[np.ndarray] = []
    dicts: List[List[Any]] = []
    for col in columns:
        col_codes, dictionary = _encode_column(col, n)
        codes.append(col_codes)
        dicts.append(dictionary)
    return codes, dicts


def _transpose(rows: List[Tuple], width: int) -> List[Sequence[Any]]:
    """Row tuples as ``width`` columns."""
    return list(zip(*rows)) if rows else [()] * width


def merge_dictionaries(left_dict: List[Any], right_dict: List[Any]):
    """Merge two column dictionaries, preserving the left coding.

    Returns:
        ``(merged, remap)`` where ``merged`` extends ``left_dict`` with the
        right-only values and ``remap[right_code] -> merged_code``.

    Interned columns (:func:`intern_factors` hands every operand the
    *same* dictionary object per variable) short-circuit to an identity
    remap — no Python loop over the dictionary contents.
    """
    if left_dict is right_dict:
        return left_dict, np.arange(len(right_dict), dtype=np.int64)
    index = {v: i for i, v in enumerate(left_dict)}
    merged = list(left_dict)
    remap = np.empty(len(right_dict), dtype=np.int64)
    for j, v in enumerate(right_dict):
        c = index.get(v)
        if c is None:
            c = len(merged)
            index[v] = c
            merged.append(v)
        remap[j] = c
    return merged, remap


# ---------------------------------------------------------------------------
# Interning: one dictionary object per variable
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
    dictionary has one (see :func:`dictionary_array`); mixed element
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
    # Concatenation must not change any value: bool/int, int/float or
    # str/numeric promotions would decode differently than the
    # originals, and uint64 (values from 2**63) with int64 concatenates
    # to float64, which merges neighbouring values — so any mix of
    # kinds takes the generic loop.
    kinds = {a.dtype.kind for a in nonempty}
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
            return pooled_remaps
        uniq, inverse = np.unique(
            np.concatenate(nonempty), return_inverse=True)
        inverse = inverse.reshape(-1).astype(np.int64, copy=False)
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


def intern_factors(
    factors: Mapping[str, ColumnarFactor]
) -> Dict[str, ColumnarFactor]:
    """``factors`` re-coded so that all columns of one variable share one
    dictionary object.

    Joins and probes then build composite keys straight from the codes,
    and :func:`merge_dictionaries` degenerates to an identity remap.  A
    variable whose columns already share one dictionary (a variable of
    one factor, for one) keeps it, and a factor none of whose columns
    changed is returned as is.  Fires no counter.
    """
    by_var: Dict[Any, Dict[int, list]] = {}
    for f in factors.values():
        for v, d in zip(f.schema, f.dictionaries):
            by_var.setdefault(v, {})[id(d)] = d
    # The remaps are keyed on id(dictionary).  Every keyed list is a
    # member of some ``f.dictionaries`` of ``factors`` and of ``by_var``,
    # both alive until this function returns, and the remaps do not
    # outlive it — no id is reused.
    pools = {
        v: _pool_dictionaries(list(distinct.values()))
        for v, distinct in by_var.items()
        if len(distinct) > 1
    }

    out: Dict[str, ColumnarFactor] = {}
    for name, f in factors.items():
        codes, dicts = list(f.codes), list(f.dictionaries)
        changed = False
        for i, v in enumerate(f.schema):
            if v in pools:
                pooled, remaps = pools[v]
                if dicts[i] is not pooled:
                    codes[i] = remaps[id(dicts[i])][codes[i]]
                    dicts[i] = pooled
                    changed = True
        out[name] = (
            ColumnarFactor._from_arrays(
                f.schema, codes, dicts, f.values, f.semiring, f.name
            )
            if changed
            else f
        )
    return out


def _composite_key(
    columns: Sequence[np.ndarray], cards: Sequence[int], n: int
) -> Optional[np.ndarray]:
    """Mixed-radix fold of code columns into one ``int64`` key per row.

    Returns ``None`` when the radix product would overflow (callers fall
    back to the dict path or to lexsort-based grouping).
    """
    if len(columns) == 1:
        # Single-column key: the codes already are the key.  Callers treat
        # keys as read-only, so aliasing the column is safe.
        if max(int(cards[0]), 1) > _MAX_RADIX:
            return None
        return columns[0]
    key = np.zeros(n, dtype=np.int64)
    radix = 1
    for col, card in zip(columns, cards):
        card = max(int(card), 1)
        if radix > _MAX_RADIX // card:
            return None
        key = key * card + col
        radix *= card
    return key


def _sort_groups(columns: Sequence[np.ndarray], cards: Sequence[int], n: int):
    """Cluster rows by the given code columns.

    Returns:
        ``(order, starts)``: a permutation sorting rows into contiguous
        groups and the start offset of each group in that order.  Uses the
        composite key when it fits ``int64``; otherwise a lexsort over the
        raw columns (never falls back to the dict path).
    """
    if not columns:
        return np.arange(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    key = _composite_key(columns, cards, n)
    if key is not None:
        # Composite-key fast path: one stable sort in the active kernel
        # tier (:mod:`repro.kernels`).
        return kernels.sort_groups_key(key)
    order = np.lexsort(tuple(reversed(columns)))
    change = np.zeros(n - 1, dtype=bool)
    for col in columns:
        sorted_col = col[order]
        change |= sorted_col[1:] != sorted_col[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change))).astype(np.int64)
    return order, starts


def _shared_columns(left: ColumnarFactor, right: ColumnarFactor, shared):
    """The two factors' code columns over ``shared``, in one code space.

    Merges the per-variable dictionaries left-preserving and remaps the
    right side's codes into the merged coding.

    Returns:
        ``(left_cols, right_cols, cards, merged_dicts)``.
    """
    merged_dicts = {}
    left_cols, right_cols, cards = [], [], []
    for v in shared:
        li, ri = left.column_index(v), right.column_index(v)
        merged, remap = merge_dictionaries(
            left.dictionaries[li], right.dictionaries[ri]
        )
        merged_dicts[v] = merged
        left_cols.append(left.codes[li])
        right_cols.append(remap[right.codes[ri]])
        cards.append(len(merged))
    return left_cols, right_cols, cards, merged_dicts


def empty_like(
    schema: Sequence[str],
    dicts: Sequence[List[Any]],
    semiring: Semiring,
    name: str | None,
) -> ColumnarFactor:
    profile = profile_for(semiring)
    return ColumnarFactor._from_arrays(
        schema,
        [np.empty(0, dtype=np.int64) for _ in schema],
        dicts,
        np.empty(0, dtype=profile.dtype),
        semiring,
        name,
    )


# ---------------------------------------------------------------------------
# The columnar kernels: one function per job
# ---------------------------------------------------------------------------


def product_overflows(profile: VectorProfile, a: np.ndarray, b: np.ndarray) -> bool:
    """True when an integer profile's elementwise ``a ⊗ b`` could overflow
    ``int64`` (worst case ``max|a| * max|b|``).  Float profiles saturate
    to ``inf`` safely and are never flagged."""
    if not np.issubdtype(profile.dtype, np.integer) or not len(a) or not len(b):
        return False
    a_max = int(np.abs(a).max())
    b_max = int(np.abs(b).max())
    return bool(a_max and b_max and a_max > INT64_MAX // b_max)


def join_step(
    left_cols, right_cols, cards, n_left, n_right, profile, left_values, right_values
):
    """One natural-join step over key columns in one code space: composite
    key per side → ``kernels.match_indices`` → ⊗ → drop zero products.

    ``left_values=None`` matches keys only (a Boolean listing's
    annotations are all ``True``).  Returns ``(left_idx, right_idx,
    values)``, or ``None`` when the composite key or an integer ⊗ could
    overflow ``int64`` (callers fall back).
    """
    if left_values is not None and product_overflows(
        profile, left_values, right_values
    ):
        return None
    left_key = _composite_key(left_cols, cards, n_left)
    right_key = _composite_key(right_cols, cards, n_right)
    if left_key is None or right_key is None:
        return None
    left_idx, right_idx = kernels.match_indices(left_key, right_key)
    if left_values is None:
        return left_idx, right_idx, None
    values = profile.mul(left_values[left_idx], right_values[right_idx])
    zero = profile.is_zero_mask(values)
    if zero.any():
        keep = ~zero
        left_idx, right_idx, values = left_idx[keep], right_idx[keep], values[keep]
    return left_idx, right_idx, values


def probe(probe_cols, build_cols, cards, n_probe, n_build):
    """Which probe rows' keys occur among the build rows', and where.

    Returns ``(found, rows)`` — a mask over the probe rows and, per found
    row, the build row holding its key (the first in sorted-key order
    when build keys repeat) — or ``None`` on composite-key overflow.
    """
    probe_key = _composite_key(probe_cols, cards, n_probe)
    build_key = _composite_key(build_cols, cards, n_build)
    if probe_key is None or build_key is None:
        return None
    if not len(build_key):
        return np.zeros(n_probe, dtype=bool), np.empty(0, dtype=np.int64)
    order = np.argsort(build_key)
    sorted_key = build_key[order]
    pos = np.minimum(np.searchsorted(sorted_key, probe_key), len(sorted_key) - 1)
    found = sorted_key[pos] == probe_key
    return found, order[pos[found]]


def group_reduce(out_schema, columns, dicts, values, n, semiring, name=None):
    """Group ``n`` rows by their code ``columns`` (one per ``out_schema``
    variable, coded by ``dicts``) and ⊕-reduce each group's ``values``.

    ``values=None`` is a Boolean listing whose annotations are all
    ``True``: the reduction is then key deduplication, a dense scatter
    over the composite code space while it is small.  Returns ``None``
    when an integer group sum could overflow ``int64`` (worst case: the
    largest group, every row in it at the max magnitude).
    """
    out_schema = tuple(out_schema)
    if n == 0:
        return empty_like(out_schema, dicts, semiring, name)
    cards = [max(len(d), 1) for d in dicts]
    if values is None:
        space = math.prod(cards)
        key = _composite_key(columns, cards, n)
        if key is not None and space <= max(4 * n, _DENSE_CAP):
            mark = np.zeros(space, dtype=bool)
            mark[key] = True
            out_keys = rem = np.flatnonzero(mark)
            out_codes = []
            for card in reversed(cards):
                out_codes.insert(0, rem % card)
                rem = rem // card
            reduced = np.ones(len(out_keys), dtype=np.bool_)
            return ColumnarFactor._from_arrays(
                out_schema, out_codes, dicts, reduced, semiring, name
            )
    else:
        profile = profile_for(semiring)
        magnitude = (
            int(np.abs(values).max())
            if np.issubdtype(profile.dtype, np.integer) else 0
        )
    order, starts = _sort_groups(columns, cards, n)
    # Every row in one group is the bound known before sorting; only
    # when that could overflow is the largest real group looked up.
    if values is not None and magnitude > INT64_MAX // n:
        largest = int(np.diff(starts, append=n).max())
        if magnitude > INT64_MAX // largest:
            return None
    representatives = order[starts]
    out_codes = [c[representatives] for c in columns]
    if values is None:
        reduced = np.ones(len(starts), dtype=np.bool_)
    else:
        reduced = kernels.grouped_reduce(values, order, starts, profile.add)
        zero = profile.is_zero_mask(reduced)
        if zero.any():
            keep = ~zero
            reduced = reduced[keep]
            out_codes = [c[keep] for c in out_codes]
    return ColumnarFactor._from_arrays(
        out_schema, out_codes, dicts, reduced, semiring, name
    )


# ---------------------------------------------------------------------------
# Vectorized operators
# ---------------------------------------------------------------------------


def columnar_join(
    left: ColumnarFactor, right: ColumnarFactor, name: str | None = None
) -> Optional[ColumnarFactor]:
    """Vectorized natural join with ⊗-multiplied annotations: one
    :func:`join_step` over the shared columns in a merged coding.

    Returns ``None`` on composite-key overflow, or when an integer-profile
    annotation product could overflow ``int64`` (caller falls back to the
    dict path's exact arithmetic).
    """
    shared = [v for v in left.schema if v in right.schema]
    out_schema = tuple(left.schema) + tuple(
        v for v in right.schema if v not in left.schema
    )
    left_cols, right_cols, cards, merged_dicts = _shared_columns(
        left, right, shared
    )
    step = join_step(
        left_cols, right_cols, cards, len(left), len(right),
        profile_for(left.semiring), left.values, right.values,
    )
    if step is None:
        return None
    left_idx, right_idx, values = step

    out_codes, out_dicts = [], []
    for v in out_schema:
        if v in merged_dicts:
            out_codes.append(left.codes[left.column_index(v)][left_idx])
            out_dicts.append(merged_dicts[v])
        elif v in left.schema:
            i = left.column_index(v)
            out_codes.append(left.codes[i][left_idx])
            out_dicts.append(left.dictionaries[i])
        else:
            i = right.column_index(v)
            out_codes.append(right.codes[i][right_idx])
            out_dicts.append(right.dictionaries[i])
    return ColumnarFactor._from_arrays(
        out_schema, out_codes, out_dicts, values, left.semiring, name
    )


def columnar_semijoin(
    left: ColumnarFactor, right: ColumnarFactor, name: str | None = None
) -> Optional[ColumnarFactor]:
    """Vectorized semijoin ``left ⋉ right`` (Definition 3.5): one
    :func:`probe` of the left rows against the right.

    Returns ``None`` on composite-key overflow (caller falls back).
    """
    shared = [v for v in left.schema if v in right.schema]
    if not shared:
        if len(right) == 0:
            return empty_like(left.schema, left.dictionaries, left.semiring, name)
        return left.copy(name=name)
    if len(left) == 0 or len(right) == 0:
        return empty_like(left.schema, left.dictionaries, left.semiring, name)

    left_cols, right_cols, cards, _merged = _shared_columns(left, right, shared)
    hit = probe(left_cols, right_cols, cards, len(left), len(right))
    if hit is None:
        return None
    keep, _rows = hit
    return ColumnarFactor._from_arrays(
        left.schema,
        [c[keep] for c in left.codes],
        left.dictionaries,
        left.values[keep],
        left.semiring,
        name,
    )


def columnar_project(
    factor: ColumnarFactor, variables: Sequence[str], name: str | None = None
) -> Optional[ColumnarFactor]:
    """Vectorized projection ``pi_variables`` with ⊕-combined duplicates.

    Returns ``None`` on possible integer overflow (caller falls back).
    """
    idx = [factor.column_index(v) for v in variables]
    return group_reduce(
        variables, [factor.codes[i] for i in idx],
        [factor.dictionaries[i] for i in idx],
        factor.values, len(factor), factor.semiring, name,
    )


def columnar_marginalize(
    factor: ColumnarFactor, variable: str, name: str | None = None
) -> Optional[ColumnarFactor]:
    """Vectorized FAQ-SS marginalization (⊕ = the semiring's ``add``).

    Custom aggregates and full-domain folds take the dict path; the
    dispatcher in :mod:`repro.faq.operations` enforces that.  Returns
    ``None`` on possible integer overflow (caller falls back).
    """
    factor.column_index(variable)  # raise KeyError on absent variables
    out_schema = tuple(v for v in factor.schema if v != variable)
    return columnar_project(factor, out_schema, name)
