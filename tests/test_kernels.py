"""The data plane's NumPy kernels — counters and naive oracles.

The contract under test:

* every kernel call counts ``kernels.numpy`` once, whatever tier name
  the inert ``use_tier`` scope is given, and ``resolved_tier()`` is
  always ``"numpy"``;
* each kernel matches a brute-force/naive NumPy oracle, including row
  order (stable-sort semantics).
"""

import numpy as np
import pytest

from repro import kernels
from repro.obs.counters import COUNTERS, counter_delta


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Dispatch counters
# ---------------------------------------------------------------------------


def _each_kernel():
    """One call of each kernel on non-empty inputs."""
    key = np.array([3, 1, 3], dtype=np.int64)
    order, starts = np.array([1, 0, 2]), np.array([0, 1])
    return (
        lambda: kernels.match_indices(key, key),
        lambda: kernels.sort_groups_key(key),
        lambda: kernels.grouped_reduce(key, order, starts, np.add),
        lambda: kernels.encode_unique(key),
    )


def test_default_tier_is_numpy():
    assert kernels.resolved_tier() == "numpy"


def test_use_tier_restores_on_error():
    with pytest.raises(RuntimeError):
        with kernels.use_tier("jit"):
            raise RuntimeError("boom")
    assert kernels.resolved_tier() == "numpy"


def test_object_dtype_encode_counts_numpy_even_on_jit():
    concat = np.array(["b", "a", "b"], dtype=object)
    with kernels.use_tier("jit"):
        before = COUNTERS.get("kernels.numpy")
        uniq, inverse = kernels.encode_unique(concat)
        assert COUNTERS.get("kernels.numpy") == before + 1
    assert list(uniq) == ["a", "b"]
    assert list(uniq[inverse]) == ["b", "a", "b"]


@pytest.mark.parametrize("tier", ["numpy", "jit"])
def test_every_kernel_counts_numpy_once_under_any_tier_name(tier):
    with kernels.use_tier(tier):
        assert kernels.resolved_tier() == "numpy"
        for call in _each_kernel():
            before = COUNTERS.snapshot()
            call()
            assert counter_delta(before, COUNTERS.snapshot()) == {
                "kernels.numpy": 1
            }


# ---------------------------------------------------------------------------
# Kernel correctness vs naive oracles
# ---------------------------------------------------------------------------


def test_match_indices_enumerates_all_pairs_in_stable_order():
    left = np.array([5, 2, 5, 9], dtype=np.int64)
    right = np.array([5, 5, 2, 7], dtype=np.int64)
    li, ri = kernels.match_indices(left, right)
    pairs = list(zip(li.tolist(), ri.tolist()))
    expected = [
        (i, j)
        for i in range(len(left))
        for j in range(len(right))
        if left[i] == right[j]
    ]
    # Grouped by left row in left order, right ties in input order.
    assert pairs == expected
    assert li.dtype == np.int64 and ri.dtype == np.int64


def test_match_indices_empty_sides():
    empty = np.empty(0, dtype=np.int64)
    li, ri = kernels.match_indices(empty, np.array([1], dtype=np.int64))
    assert len(li) == 0 and len(ri) == 0
    li, ri = kernels.match_indices(np.array([1], dtype=np.int64), empty)
    assert len(li) == 0 and len(ri) == 0


def test_sort_groups_key_clusters_and_starts():
    key = np.array([7, 1, 7, 1, 3], dtype=np.int64)
    order, starts = kernels.sort_groups_key(key)
    clustered = key[order]
    assert clustered.tolist() == [1, 1, 3, 7, 7]
    assert starts.tolist() == [0, 2, 3]
    # Stability: equal keys keep input order.
    assert order.tolist() == [1, 3, 4, 0, 2]


def test_grouped_reduce_matches_reduceat():
    rng = _rng(1)
    key = rng.integers(0, 10, size=200).astype(np.int64)
    values = rng.random(200)
    order, starts = kernels.sort_groups_key(key)
    for ufunc in (np.add, np.minimum, np.maximum, np.multiply):
        got = kernels.grouped_reduce(values, order, starts, ufunc)
        expected = ufunc.reduceat(values[order], starts)
        np.testing.assert_array_equal(got, expected)


def test_encode_unique_matches_np_unique():
    rng = _rng(2)
    concat = rng.integers(-50, 50, size=300).astype(np.int64)
    uniq, inverse = kernels.encode_unique(concat)
    exp_uniq, exp_inverse = np.unique(concat, return_inverse=True)
    np.testing.assert_array_equal(uniq, exp_uniq)
    np.testing.assert_array_equal(inverse, exp_inverse.astype(np.int64))
    np.testing.assert_array_equal(uniq[inverse], concat)
