"""Matrix-chain multiplication on a line — Section 6 end to end.

Runs all three MCM protocols (Proposition 6.1's sequential streaming, the
Appendix I.1 merge, and the trivial ship-everything baseline) on the same
F2 chain, prints the measured round counts against the closed-form
predictions, and shows the k-vs-N crossover the paper proves: sequential
wins for k <= N (Theorem 6.4 says it is *optimal* there), merge wins for
k >> N.

Run:  python examples/matrix_chain.py
"""

import numpy as np

from repro.linalg import f2
from repro.protocols.mcm import (
    predicted_rounds,
    run_mcm_merge,
    run_mcm_sequential,
    run_mcm_trivial,
)


def run_chain(k: int, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    matrices = [f2.random_matrix(n, rng) for _ in range(k)]
    x = f2.random_vector(n, rng)
    truth = f2.chain_product(matrices, x)
    print(f"\nk={k} matrices of size {n}x{n} over F2 (1 bit/round/edge):")
    rows = []
    for name, runner in (
        ("sequential (Prop 6.1)", run_mcm_sequential),
        ("merge (App I.1)", run_mcm_merge),
        ("trivial (footnote 18)", run_mcm_trivial),
    ):
        report = runner(matrices, x)
        ok = report.result.tolist() == truth.tolist()
        key = name.split(" ")[0]
        predicted = predicted_rounds(k, n, key)
        print(
            f"  {name:<24} rounds={report.rounds:>7} "
            f"predicted~{predicted:>9.0f} bits={report.total_bits:>8} "
            f"{'ok' if ok else 'WRONG'}"
        )
        rows.append((key, report.rounds))
    return dict(rows)


def main() -> None:
    print("=== the k <= N regime: sequential is optimal (Theorem 6.4) ===")
    small = run_chain(k=4, n=16)
    assert small["sequential"] < small["merge"] < small["trivial"]

    print("\n=== the k >> N regime: merge wins (Appendix I.1) ===")
    large = run_chain(k=48, n=4)
    assert large["merge"] < large["sequential"]

    print(
        "\ncrossover: sequential costs ~kN, merge ~N^2 log k + k; "
        "they cross near k ~ N log k, exactly as the paper predicts."
    )


if __name__ == "__main__":
    main()
