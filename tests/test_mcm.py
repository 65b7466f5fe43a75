"""Tests for the F2 substrate and the three MCM protocols (Section 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import f2
from repro.protocols.mcm import (
    predicted_rounds,
    run_mcm_merge,
    run_mcm_sequential,
    run_mcm_trivial,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# F2 linear algebra
# ---------------------------------------------------------------------------


def test_matvec_mod2():
    a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    x = np.array([1, 1], dtype=np.uint8)
    assert f2.matvec(a, x).tolist() == [0, 1]


def test_matmul_mod2():
    a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert f2.matmul(a, a).tolist() == [[1, 0], [0, 1]]


def test_shape_mismatch():
    a = np.zeros((2, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        f2.matvec(a, np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        f2.matmul(a, a)


def test_chain_product_order():
    """chain_product applies A_1 first: y = A_k ... A_1 x."""
    a1 = np.array([[0, 1], [1, 0]], dtype=np.uint8)  # swap
    a2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    x = np.array([1, 0], dtype=np.uint8)
    manual = f2.matvec(a2, f2.matvec(a1, x))
    assert f2.chain_product([a1, a2], x).tolist() == manual.tolist()


def test_rank_and_invertibility():
    eye = np.eye(4, dtype=np.uint8)
    assert f2.rank(eye) == 4
    assert f2.is_invertible(eye)
    singular = np.ones((3, 3), dtype=np.uint8)
    assert f2.rank(singular) == 1
    assert not f2.is_invertible(singular)


def test_pack_unpack_roundtrip():
    v = f2.random_vector(10, rng(3))
    assert f2.unpack_int(f2.pack_int(v), 10).tolist() == v.tolist()


def test_bits_roundtrip():
    v = f2.random_vector(7, rng(1))
    assert f2.bits_to_vector(f2.vector_to_bits(v)).tolist() == v.tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_rank_bounds_property(seed, n):
    a = f2.random_matrix(n, rng(seed))
    r = f2.rank(a)
    assert 0 <= r <= n


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_matmul_associative_property(seed):
    g = rng(seed)
    a, b, c = (f2.random_matrix(4, g) for _ in range(3))
    lhs = f2.matmul(f2.matmul(a, b), c)
    rhs = f2.matmul(a, f2.matmul(b, c))
    assert lhs.tolist() == rhs.tolist()


# ---------------------------------------------------------------------------
# MCM protocols
# ---------------------------------------------------------------------------


def chain_instance(k, n, seed=0):
    g = rng(seed)
    mats = [f2.random_matrix(n, g) for _ in range(k)]
    x = f2.random_vector(n, g)
    return mats, x, f2.chain_product(mats, x)


@pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (3, 5), (4, 6), (7, 4)])
def test_all_protocols_agree(k, n):
    mats, x, truth = chain_instance(k, n, seed=k * 10 + n)
    for fn in (run_mcm_sequential, run_mcm_merge, run_mcm_trivial):
        rep = fn(mats, x)
        assert rep.result.tolist() == truth.tolist(), fn.__name__


def test_sequential_round_count_matches_proposition_6_1():
    """Prop 6.1: (k+1) vector transmissions of N bits each."""
    mats, x, _ = chain_instance(4, 8, seed=1)
    rep = run_mcm_sequential(mats, x)
    assert rep.rounds == 5 * 8
    assert rep.total_bits == 5 * 8


def test_trivial_round_count_is_theta_k_n_squared():
    mats, x, _ = chain_instance(3, 6, seed=2)
    rep = run_mcm_trivial(mats, x)
    # The sink's edge carries N + k*N^2 bits at 1 bit/round.
    assert rep.rounds >= 3 * 36
    assert rep.rounds <= 3 * 36 + 6 + 10


def test_merge_beats_sequential_for_huge_k():
    """The Appendix I.1 crossover: k >> N favors the merge protocol."""
    n, k = 3, 64
    mats, x, truth = chain_instance(k, n, seed=3)
    seq = run_mcm_sequential(mats, x)
    merge = run_mcm_merge(mats, x)
    assert seq.result.tolist() == truth.tolist()
    assert merge.result.tolist() == truth.tolist()
    assert merge.rounds < seq.rounds


def test_sequential_beats_merge_for_small_k():
    """For k <= N the Θ(kN) protocol wins (Theorem 6.4 regime)."""
    n, k = 16, 3
    mats, x, _ = chain_instance(k, n, seed=4)
    seq = run_mcm_sequential(mats, x)
    merge = run_mcm_merge(mats, x)
    assert seq.rounds < merge.rounds


def test_word_bits_speedup():
    mats, x, truth = chain_instance(3, 8, seed=5)
    slow = run_mcm_sequential(mats, x, word_bits=1)
    fast = run_mcm_sequential(mats, x, word_bits=8)
    assert fast.result.tolist() == truth.tolist()
    assert fast.rounds < slow.rounds


def test_predicted_rounds_shapes():
    assert predicted_rounds(4, 8, "sequential") == 40
    assert predicted_rounds(4, 8, "trivial") == 4 * 64 + 8
    assert predicted_rounds(4, 8, "merge") == 64 * 2 + 16 + 4
    with pytest.raises(ValueError):
        predicted_rounds(4, 8, "nope")


def test_predictions_match_measurements_within_2x():
    mats, x, _ = chain_instance(5, 6, seed=6)
    for name, fn in (
        ("sequential", run_mcm_sequential),
        ("trivial", run_mcm_trivial),
        ("merge", run_mcm_merge),
    ):
        measured = fn(mats, x).rounds
        predicted = predicted_rounds(5, 6, name)
        assert predicted / 2.5 <= measured <= predicted * 2.5, (
            name,
            measured,
            predicted,
        )


def test_input_validation():
    g = rng(0)
    with pytest.raises(ValueError):
        run_mcm_sequential([f2.random_matrix(3, g)], f2.random_vector(4, g))
    with pytest.raises(ValueError):
        run_mcm_merge([], f2.random_vector(4, g))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 500), st.integers(1, 6), st.integers(2, 5))
def test_merge_always_correct_property(seed, k, n):
    mats, x, truth = chain_instance(k, n, seed=seed)
    rep = run_mcm_merge(mats, x, word_bits=4)
    assert rep.result.tolist() == truth.tolist()
