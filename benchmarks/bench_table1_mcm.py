"""T1.R5 — Table 1 row 5: MCM on a line, gap O(1) (Section 6).

Proposition 6.1's sequential protocol measured against the Theorem 6.4
lower bound Ω(kN): for k <= N the measured/lower ratio must be a constant
independent of both k and N — the only Table 1 row with *no* polylog gap.
Also checks footnote 18's Θ(kN²) baseline loses by a factor ~N.
"""

import numpy as np
import pytest

from repro.linalg import f2
from repro.protocols.mcm import run_mcm_sequential, run_mcm_trivial


def chain(k, n, seed=0):
    rng = np.random.default_rng(seed)
    return [f2.random_matrix(n, rng) for _ in range(k)], f2.random_vector(n, rng)


CASES = [(2, 16), (4, 16), (4, 32), (8, 32)]


def run_case(k, n):
    mats, x = chain(k, n, seed=k * 100 + n)
    report = run_mcm_sequential(mats, x)
    truth = f2.chain_product(mats, x)
    assert report.result.tolist() == truth.tolist()
    lower = k * n  # Theorem 6.4's Ω(kN), constant set to 1
    return report.rounds, lower


def test_mcm_row_constant_gap(benchmark):
    results = [run_case(k, n) for k, n in CASES[:-1]]
    results.append(
        benchmark.pedantic(run_case, args=CASES[-1], rounds=1, iterations=1)
    )
    print(f"{'k':>4} {'N':>4} {'rounds':>8} {'lower kN':>9} {'gap':>6}")
    gaps = []
    for (k, n), (rounds, lower) in zip(CASES, results):
        gap = rounds / lower
        gaps.append(gap)
        print(f"{k:>4} {n:>4} {rounds:>8} {lower:>9} {gap:>6.2f}")
    # O(1) gap: bounded above AND stable across the (k, N) sweep.
    assert all(0.9 <= g <= 3.0 for g in gaps), gaps
    assert max(gaps) <= 1.8 * min(gaps)


def test_mcm_trivial_loses_by_factor_n(benchmark):
    k, n = 3, 12
    mats, x = chain(k, n, seed=5)
    seq = run_mcm_sequential(mats, x)
    trivial = benchmark.pedantic(
        run_mcm_trivial, args=(mats, x), rounds=1, iterations=1
    )
    ratio = trivial.rounds / seq.rounds
    print(
        f"sequential={seq.rounds} trivial={trivial.rounds} "
        f"ratio={ratio:.1f} (~N={n} expected)"
    )
    assert n / 2.5 <= ratio <= n * 2.5
