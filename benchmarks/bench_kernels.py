"""Kernel tier microbenchmarks — NumPy vs JIT on the data-plane kernels.

Times every :mod:`repro.kernels` kernel across input sizes on both
tiers.  The tier contract is "byte-identical outputs, never slower":
with numba installed the JIT tier must not lose to NumPy on the largest
input (after warmup — compilation is excluded); without numba the JIT
tier *is* the NumPy tier, so the comparison is reported as skipped and
only the NumPy trajectory prints.  Either way the bench asserts the
parity half of the contract on every timed input.
"""

import time

import numpy as np
import pytest

from repro import kernels

from conftest import print_banner

#: Input rows per size step.
SIZES = (1_000, 10_000, 100_000)
REPEATS = 5
#: The JIT tier may not be slower than ``SLACK`` x NumPy at the largest
#: size (generous: the assertion guards regressions, not marketing).
SLACK = 1.25


def _inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "left": rng.integers(0, max(2, n // 4), size=n).astype(np.int64),
        "right": rng.integers(0, max(2, n // 4), size=n).astype(np.int64),
        "key": rng.integers(0, max(2, n // 8), size=n).astype(np.int64),
        "values": rng.random(n),
        "concat": rng.integers(-n, n, size=n).astype(np.int64),
    }


def _kernel_calls(data):
    """name -> zero-arg thunk returning comparable output arrays."""
    order, starts = None, None

    def groups():
        nonlocal order, starts
        order, starts = kernels.sort_groups_key(data["key"])
        return [order, starts]

    def reduce_():
        if order is None:
            groups()
        return [kernels.grouped_reduce(data["values"], order, starts, np.add)]

    return {
        "match_indices": lambda: list(
            kernels.match_indices(data["left"], data["right"])
        ),
        "sort_groups_key": groups,
        "grouped_reduce": reduce_,
        "encode_unique": lambda: list(kernels.encode_unique(data["concat"])),
    }


def _time(thunk):
    best = float("inf")
    out = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = thunk()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_kernel_tiers_never_slower():
    print_banner(
        "kernel tiers: numpy vs jit "
        f"(numba {'available' if kernels.HAVE_NUMBA else 'NOT installed'})"
    )
    header = f"{'kernel':<18} {'rows':>8} {'numpy ms':>10} {'jit ms':>10} {'ratio':>7}"
    print(header)
    print("-" * len(header))

    largest_ratios = {}
    for n in SIZES:
        data = _inputs(n)
        for name in _kernel_calls(data):
            with kernels.use_tier("numpy"):
                np_s, np_out = _time(_kernel_calls(data)[name])
            if kernels.HAVE_NUMBA:
                with kernels.use_tier("jit"):
                    _kernel_calls(data)[name]()  # warmup: compile
                    jit_s, jit_out = _time(_kernel_calls(data)[name])
                for a, b in zip(np_out, jit_out):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
                ratio = jit_s / np_s if np_s > 0 else 1.0
                largest_ratios[name] = ratio  # last size wins: largest N
                jit_col, ratio_col = f"{jit_s * 1e3:>10.3f}", f"{ratio:>7.2f}"
            else:
                jit_col, ratio_col = f"{'-':>10}", f"{'-':>7}"
            print(
                f"{name:<18} {n:>8} {np_s * 1e3:>10.3f} {jit_col} {ratio_col}"
            )

    if not kernels.HAVE_NUMBA:
        print("\nno numba: jit tier resolves to numpy; comparison skipped")
        pytest.skip("numba not installed; JIT-vs-NumPy comparison skipped")

    print(f"\nlargest-input jit/numpy ratios: "
          + ", ".join(f"{k}={v:.2f}" for k, v in largest_ratios.items()))
    slow = {k: v for k, v in largest_ratios.items() if v > SLACK}
    assert not slow, (
        f"JIT tier slower than NumPy beyond {SLACK}x slack at "
        f"{SIZES[-1]} rows: {slow}"
    )
