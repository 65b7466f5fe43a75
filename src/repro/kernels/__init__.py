"""Backend-dispatched hot kernels — the NumPy/JIT tier of the data plane.

The columnar data plane bottoms out in a handful of array kernels: the
stable-sort equi-join probe (:func:`match_indices`) and the sort/reduceat
group-by (:func:`sort_groups_key`, :func:`grouped_reduce`), called from
``semiring/columnar.py`` alone, and the sort-based dictionary union
(:func:`encode_unique`).  All four are data-plane kernels: the protocol
engines account rounds on plain ints and import nothing from here.  This
package routes each kernel through a process-wide **kernel tier**
selected the same way the ``engine``/``solver``/``backend`` axes are:

* ``"numpy"`` (default) — the pure-NumPy implementations, always
  available;
* ``"jit"`` — numba ``@njit`` versions compiled on first use when numba
  is importable (:data:`HAVE_NUMBA`), silently resolving back to the
  NumPy tier otherwise so the axis is runnable on every install
  (``pip install repro-pods[jit]`` adds numba).

Parity contract: both tiers must produce **byte-identical** outputs —
same values, same dtypes, same row order.  Everything order-sensitive
therefore uses *stable* sorts on both tiers (an unstable sort would let
the tiers disagree on tie order without either being wrong).  The lab
sweeps ``--kernels numpy|jit|both`` through the same differential gates
as the other three axes, so a tier that drifts fails parity, the cost
oracle and trace replay at once.

Dispatch is observable: every public kernel call increments the
deterministic counter ``kernels.numpy`` or ``kernels.jit`` for the tier
that actually ran (a ``"jit"`` request without numba counts as
``kernels.numpy`` — the honest record of what executed).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

from ..obs.counters import COUNTERS

#: The kernel tiers the lab's ``--kernels`` axis accepts.
KERNEL_TIERS = ("numpy", "jit")

try:  # pragma: no cover - exercised only where numba is installed
    from . import _jit as _jit_impl

    HAVE_NUMBA = True
except ImportError:  # numba not installed: the NumPy tier serves "jit"
    _jit_impl = None
    HAVE_NUMBA = False

_active_tier = "numpy"


def active_tier() -> str:
    """The *requested* kernel tier (``"numpy"`` or ``"jit"``)."""
    return _active_tier


def resolved_tier() -> str:
    """The tier that will actually execute (``"jit"`` needs numba)."""
    if _active_tier == "jit" and HAVE_NUMBA:
        return "jit"
    return "numpy"


def set_tier(name: str) -> None:
    """Select the process-wide kernel tier."""
    if name not in KERNEL_TIERS:
        raise ValueError(f"unknown kernel tier {name!r}; known: {KERNEL_TIERS}")
    global _active_tier
    _active_tier = name


@contextmanager
def use_tier(name: str) -> Iterator[None]:
    """Scoped :func:`set_tier` — the lab wraps each scenario in this."""
    previous = _active_tier
    set_tier(name)
    try:
        yield
    finally:
        set_tier(previous)


def _dispatch() -> bool:
    """Count the dispatch; True when the JIT tier should run."""
    if _active_tier == "jit" and HAVE_NUMBA:
        COUNTERS.increment("kernels.jit")
        return True
    COUNTERS.increment("kernels.numpy")
    return False


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def match_indices(
    left_key: np.ndarray, right_key: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-index pairs of the equi-join ``left_key = right_key``.

    Stable-sorts the right side and probes it with ``searchsorted``;
    match runs are expanded with ``repeat``/``arange`` arithmetic.
    Returns ``(left_idx, right_idx)`` such that ``left_key[left_idx[i]]
    == right_key[right_idx[i]]`` enumerates every matching pair, grouped
    by left row in left order with right ties in input order (the stable
    sort is what pins tie order identically across tiers).
    """
    if _dispatch():
        return _jit_impl.match_indices(left_key, right_key)
    order = np.argsort(right_key, kind="stable")
    right_sorted = right_key[order]
    lo = np.searchsorted(right_sorted, left_key, side="left")
    hi = np.searchsorted(right_sorted, left_key, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_key), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    right_idx = order[np.repeat(lo, counts) + within]
    return left_idx, right_idx


def sort_groups_key(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster rows sharing a composite int64 key.

    Returns ``(order, starts)``: a stable permutation sorting rows into
    contiguous groups plus each group's start offset in that order — the
    composite-key fast path of the columnar group-by.
    """
    if _dispatch():
        return _jit_impl.sort_groups_key(key)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    change = sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change))).astype(np.int64)
    return order, starts


#: ⊕ ufuncs the JIT tier lowers to explicit loops; any other reduction
#: runs the NumPy ``reduceat`` on both tiers (correct, just not jitted).
_JIT_REDUCERS = {"add", "logical_or", "minimum", "maximum", "multiply"}


def grouped_reduce(
    values: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    add_ufunc: np.ufunc,
) -> np.ndarray:
    """⊕-reduce ``values`` over the groups of a :func:`sort_groups_key`.

    Equivalent to ``add_ufunc.reduceat(values[order], starts)`` — the
    fused join+marginalize group-by reduction, one output per group.
    """
    name = getattr(add_ufunc, "__name__", "")
    if name in _JIT_REDUCERS and _dispatch():
        return _jit_impl.grouped_reduce(values, order, starts, name)
    if name not in _JIT_REDUCERS:
        # Unknown ⊕: no JIT lowering exists, so this is NumPy-tier work
        # regardless of the requested tier.
        COUNTERS.increment("kernels.numpy")
    return add_ufunc.reduceat(values[order], starts)


def encode_unique(concat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(uniq, inverse)`` of a concatenated column, stable-sort based.

    The dictionary-union kernel behind interning and columnar encoding:
    one stable argsort (radix for integer dtypes) plus mask arithmetic;
    the inverse doubles as the per-dictionary remap.
    """
    if len(concat) == 0:
        return concat, np.empty(0, dtype=np.int64)
    if concat.dtype.kind in "iuf" and _dispatch():
        return _jit_impl.encode_unique(concat)
    if concat.dtype.kind not in "iuf":
        # Object/string columns: no JIT lowering, NumPy tier by dtype.
        COUNTERS.increment("kernels.numpy")
    order = np.argsort(concat, kind="stable")
    ordered = concat[order]
    change = ordered[1:] != ordered[:-1]
    group = np.concatenate(([0], np.cumsum(change)))
    inverse = np.empty(len(concat), dtype=np.int64)
    inverse[order] = group
    uniq = ordered[np.concatenate(([True], change))]
    return uniq, inverse


__all__ = [
    "HAVE_NUMBA",
    "KERNEL_TIERS",
    "active_tier",
    "resolved_tier",
    "set_tier",
    "use_tier",
    "match_indices",
    "sort_groups_key",
    "grouped_reduce",
    "encode_unique",
]
