"""The data plane's hot array kernels, in NumPy.

The columnar data plane bottoms out in a handful of array kernels: the
stable-sort equi-join probe (:func:`match_indices`) and the sort/reduceat
group-by (:func:`sort_groups_key`, :func:`grouped_reduce`), called from
``semiring/columnar.py`` alone.  All three are data-plane kernels: the
protocol engines account rounds on plain ints and import nothing from
here.  Everything order-sensitive uses *stable* sorts, so row order is a
pure function of the input.

Every public kernel call increments the deterministic counter
``kernels.numpy`` once.  Dictionary encoding and interning
(``semiring/columnar.py``) call ``np.unique`` directly and count
nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from ..obs.counters import COUNTERS

# Inert; ``ScenarioSpec.kernels`` validates against it.  ROADMAP 1(d) retires it.
KERNEL_TIERS = ("numpy", "jit")


# Inert; the frozen benchmark ledger calls it.  ROADMAP 1(d) retires it.
@contextmanager
def use_tier(name: str) -> Iterator[None]:
    yield


# Inert; the frozen benchmark ledger calls it.  ROADMAP 1(d) retires it.
def resolved_tier() -> str:
    return "numpy"


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
    sort is what pins tie order).
    """
    COUNTERS.increment("kernels.numpy")
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
    COUNTERS.increment("kernels.numpy")
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    change = sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change))).astype(np.int64)
    return order, starts


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
    COUNTERS.increment("kernels.numpy")
    return add_ufunc.reduceat(values[order], starts)


__all__ = [
    "KERNEL_TIERS",
    "resolved_tier",
    "use_tier",
    "match_indices",
    "sort_groups_key",
    "grouped_reduce",
]
