"""M.CROSS — Proposition 6.1 vs Appendix I.1: the k-vs-N crossover.

Sequential streaming costs Θ(kN); the merge protocol costs
O(N² log k + k).  The paper proves sequential optimal for k <= N and
presents the merge as the k >> N alternative.  The bench sweeps k at fixed
N, prints both series, and asserts: sequential wins at small k, merge wins
at large k, and the crossover sits within a constant factor of the
predicted k* ~ N² log(k)/N = N log k.
"""

import numpy as np
import pytest

from repro.linalg import f2
from repro.protocols.mcm import predicted_rounds, run_mcm_merge, run_mcm_sequential

N = 6
K_SWEEP = (2, 4, 8, 16, 32, 64)


def instance(k, seed=0):
    rng = np.random.default_rng(seed + k)
    return [f2.random_matrix(N, rng) for _ in range(k)], f2.random_vector(N, rng)


def measure(k):
    mats, x = instance(k)
    truth = f2.chain_product(mats, x)
    seq = run_mcm_sequential(mats, x)
    merge = run_mcm_merge(mats, x)
    assert seq.result.tolist() == truth.tolist()
    assert merge.result.tolist() == truth.tolist()
    return seq.rounds, merge.rounds


def test_crossover_sweep(benchmark):
    results = [measure(k) for k in K_SWEEP[:-1]]
    results.append(
        benchmark.pedantic(measure, args=(K_SWEEP[-1],), rounds=1, iterations=1)
    )
    print(
        f"{'k':>4} {'seq':>7} {'~kN':>7} {'merge':>7} {'~N²logk+k':>10} winner"
    )
    winners = []
    for k, (seq, merge) in zip(K_SWEEP, results):
        winner = "seq" if seq <= merge else "merge"
        winners.append(winner)
        print(
            f"{k:>4} {seq:>7} {predicted_rounds(k, N, 'sequential'):>7.0f} "
            f"{merge:>7} {predicted_rounds(k, N, 'merge'):>10.0f} {winner}"
        )
    # Shape: sequential wins the small-k regime, merge the large-k regime,
    # with a single crossover in between.
    assert winners[0] == "seq"
    assert winners[-1] == "merge"
    flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
    assert flips == 1, winners


def test_sequential_tracks_kn(benchmark):
    """Sequential rounds == (k+1) * N exactly at 1 bit/round."""

    def run():
        out = {}
        for k in (2, 8, 32):
            mats, x = instance(k, seed=1)
            out[k] = run_mcm_sequential(mats, x).rounds
        return out

    rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    print("sequential rounds:", rounds)
    for k, r in rounds.items():
        assert r == (k + 1) * N


def test_merge_tracks_n2_logk(benchmark):
    """Merge rounds stay within 2x of N² ceil(log2 k) + 2N + k."""

    def run():
        out = {}
        for k in (4, 16, 64):
            mats, x = instance(k, seed=2)
            out[k] = run_mcm_merge(mats, x).rounds
        return out

    rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    for k, r in rounds.items():
        predicted = predicted_rounds(k, N, "merge")
        print(f"k={k}: merge={r} predicted~{predicted:.0f}")
        assert predicted / 2.2 <= r <= predicted * 2.2
