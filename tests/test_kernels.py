"""The kernel dispatch tier — selection, counters, and tier parity.

The :mod:`repro.kernels` package routes the data plane's hot array
kernels through a process-wide tier (``numpy``/``jit``).  The contract
under test:

* tier selection is explicit, scoped and validated;
* every kernel call counts the tier that *actually ran* (a ``jit``
  request without numba honestly counts ``kernels.numpy``);
* each kernel matches a brute-force/naive NumPy oracle, including row
  order (stable-sort semantics);
* the two tiers are byte-identical on the same inputs — values, dtypes
  and order.  Without numba both tiers resolve to the NumPy
  implementation, which makes the parity loop a (cheap) tautology; with
  numba installed the same loop is the real differential gate.
"""

import numpy as np
import pytest

from repro import kernels
from repro.obs.counters import COUNTERS


@pytest.fixture(autouse=True)
def _numpy_tier():
    """Every test starts and ends on the default tier."""
    kernels.set_tier("numpy")
    yield
    kernels.set_tier("numpy")


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Tier selection
# ---------------------------------------------------------------------------


def test_default_tier_is_numpy():
    assert kernels.active_tier() == "numpy"
    assert kernels.resolved_tier() == "numpy"


def test_set_tier_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel tier"):
        kernels.set_tier("cuda")


def test_use_tier_scopes_and_restores():
    assert kernels.active_tier() == "numpy"
    with kernels.use_tier("jit"):
        assert kernels.active_tier() == "jit"
        expected = "jit" if kernels.HAVE_NUMBA else "numpy"
        assert kernels.resolved_tier() == expected
    assert kernels.active_tier() == "numpy"


def test_use_tier_restores_on_error():
    with pytest.raises(RuntimeError):
        with kernels.use_tier("jit"):
            raise RuntimeError("boom")
    assert kernels.active_tier() == "numpy"


# ---------------------------------------------------------------------------
# Dispatch counters
# ---------------------------------------------------------------------------


def test_numpy_tier_counts_numpy():
    before = COUNTERS.get("kernels.numpy")
    kernels.sort_groups_key(np.array([3, 1, 3], dtype=np.int64))
    assert COUNTERS.get("kernels.numpy") == before + 1


def test_jit_request_counts_resolved_tier():
    with kernels.use_tier("jit"):
        before_np = COUNTERS.get("kernels.numpy")
        before_jit = COUNTERS.get("kernels.jit")
        kernels.sort_groups_key(np.array([3, 1, 3], dtype=np.int64))
        if kernels.HAVE_NUMBA:
            assert COUNTERS.get("kernels.jit") == before_jit + 1
            assert COUNTERS.get("kernels.numpy") == before_np
        else:
            # No numba: the NumPy tier served the request and the
            # counter records what executed, not what was asked for.
            assert COUNTERS.get("kernels.numpy") == before_np + 1
            assert COUNTERS.get("kernels.jit") == before_jit


def test_object_dtype_encode_counts_numpy_even_on_jit():
    concat = np.array(["b", "a", "b"], dtype=object)
    with kernels.use_tier("jit"):
        before = COUNTERS.get("kernels.numpy")
        kernels.encode_unique(concat)
        assert COUNTERS.get("kernels.numpy") == before + 1


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


# ---------------------------------------------------------------------------
# Tier parity — byte-identical outputs
# ---------------------------------------------------------------------------


def _run_all_kernels():
    """Every kernel on fixed random inputs; returns comparable outputs."""
    rng = _rng(42)
    left = rng.integers(0, 40, size=500).astype(np.int64)
    right = rng.integers(0, 40, size=350).astype(np.int64)
    key = rng.integers(0, 25, size=400).astype(np.int64)
    values = rng.random(400)
    concat = rng.integers(-100, 100, size=600).astype(np.int64)

    li, ri = kernels.match_indices(left, right)
    order, starts = kernels.sort_groups_key(key)
    reduced = kernels.grouped_reduce(values, order, starts, np.add)
    uniq, inverse = kernels.encode_unique(concat)
    return [li, ri, order, starts, reduced, uniq, inverse]


def test_tiers_byte_identical():
    with kernels.use_tier("numpy"):
        base = _run_all_kernels()
    with kernels.use_tier("jit"):
        other = _run_all_kernels()
    for a, b in zip(base, other):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
