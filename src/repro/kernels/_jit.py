"""numba ``@njit`` kernel implementations — imported only when numba is.

Every function here must be **byte-identical** to its NumPy twin in
:mod:`repro.kernels`: same values, same dtypes, same row order.  That is
why each sort below is numba's ``kind='mergesort'`` (stable) — matching
the ``kind='stable'`` NumPy calls — and why the expansion arithmetic
mirrors the NumPy formulations line for line.  The lab's ``--kernels
both`` axis diffs the two tiers through the full parity/cost/trace
gates, so any divergence is a caught bug, not drift.

This module import-fails cleanly when numba is absent; the package
``__init__`` catches that and serves the NumPy tier for ``"jit"``
requests (``HAVE_NUMBA`` records which happened).
"""

from __future__ import annotations

import numpy as np
from numba import njit  # noqa: F401 — gate: ImportError without numba


@njit(cache=True)
def _match_indices_jit(left_key, right_key):  # pragma: no cover - needs numba
    order = np.argsort(right_key, kind="mergesort")
    right_sorted = right_key[order]
    n = len(left_key)
    lo = np.searchsorted(right_sorted, left_key, side="left")
    hi = np.searchsorted(right_sorted, left_key, side="right")
    total = 0
    for i in range(n):
        total += hi[i] - lo[i]
    left_idx = np.empty(total, dtype=np.int64)
    right_idx = np.empty(total, dtype=np.int64)
    pos = 0
    for i in range(n):
        for j in range(lo[i], hi[i]):
            left_idx[pos] = i
            right_idx[pos] = order[j]
            pos += 1
    return left_idx, right_idx


def match_indices(left_key, right_key):  # pragma: no cover - needs numba
    return _match_indices_jit(
        np.ascontiguousarray(left_key), np.ascontiguousarray(right_key)
    )


@njit(cache=True)
def _sort_groups_key_jit(key):  # pragma: no cover - needs numba
    order = np.argsort(key, kind="mergesort")
    n = len(key)
    count = 1 if n else 0
    for i in range(1, n):
        if key[order[i]] != key[order[i - 1]]:
            count += 1
    starts = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(n):
        if i == 0 or key[order[i]] != key[order[i - 1]]:
            starts[pos] = i
            pos += 1
    return order, starts


def sort_groups_key(key):  # pragma: no cover - needs numba
    return _sort_groups_key_jit(np.ascontiguousarray(key))


def _make_reducer(op_name):  # pragma: no cover - needs numba
    if op_name == "add":
        combine = njit(cache=True)(lambda a, b: a + b)
    elif op_name == "logical_or":
        combine = njit(cache=True)(lambda a, b: a or b)
    elif op_name == "minimum":
        combine = njit(cache=True)(lambda a, b: a if a < b else b)
    elif op_name == "maximum":
        combine = njit(cache=True)(lambda a, b: a if a > b else b)
    else:  # multiply
        combine = njit(cache=True)(lambda a, b: a * b)

    @njit(cache=True)
    def reducer(values, order, starts):
        n = len(order)
        m = len(starts)
        out = np.empty(m, dtype=values.dtype)
        for g in range(m):
            begin = starts[g]
            end = starts[g + 1] if g + 1 < m else n
            acc = values[order[begin]]
            for i in range(begin + 1, end):
                acc = combine(acc, values[order[i]])
            out[g] = acc
        return out

    return reducer


_REDUCERS = {}


def grouped_reduce(values, order, starts, op_name):  # pragma: no cover
    reducer = _REDUCERS.get(op_name)
    if reducer is None:
        reducer = _REDUCERS[op_name] = _make_reducer(op_name)
    return reducer(
        np.ascontiguousarray(values),
        np.ascontiguousarray(order),
        np.ascontiguousarray(starts),
    )


@njit(cache=True)
def _encode_unique_jit(concat):  # pragma: no cover - needs numba
    order = np.argsort(concat, kind="mergesort")
    n = len(concat)
    uniques = 1
    for i in range(1, n):
        if concat[order[i]] != concat[order[i - 1]]:
            uniques += 1
    uniq = np.empty(uniques, dtype=concat.dtype)
    inverse = np.empty(n, dtype=np.int64)
    group = -1
    for i in range(n):
        if i == 0 or concat[order[i]] != concat[order[i - 1]]:
            group += 1
            uniq[group] = concat[order[i]]
        inverse[order[i]] = group
    return uniq, inverse


def encode_unique(concat):  # pragma: no cover - needs numba
    return _encode_unique_jit(np.ascontiguousarray(concat))

