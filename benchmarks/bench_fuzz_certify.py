"""Fuzz certification — the randomized differential oracle as a bench.

Runs a seeded fuzz sweep (generated scenarios x the full
engine x solver x backend grid) and asserts the two contracts
the fuzzed scenario plane exists to enforce:

* **zero bound violations** — every run satisfies the Lemma 4.4
  cut-accounting round bound, and TRIBES-embedded worst-case runs push
  at least the embedded instance's content across the min cut (the
  ``m * N`` bits floor);
* **zero parity failures** — answer digests, round counts and total bits
  agree pairwise along every axis.

The sweep is smaller than the registered ``fuzz`` suite (which CI runs
via the CLI) but uses the same generator, so a regression here is a
regression there.
"""

import math

from repro.lab import (
    all_parity_failures,
    bound_violations,
    certification_payload,
    fuzz_suite,
    run_suite,
)
from repro.lab.suites import AXES

#: Distinct from the suites' DEFAULT_SEED so this bench explores a
#: different slice of the scenario space than the CI fuzz job.
BENCH_SEED = 424242

#: Base scenarios; the suite crosses each with every plane of the axis
#: table (2 engines x 2 solvers x 2 backends today).
BENCH_COUNT = 12
PLANES = math.prod(len(values) for values in AXES.values())


def run_sweep():
    run = run_suite(fuzz_suite(BENCH_SEED, count=BENCH_COUNT, name="fuzz-bench"))
    assert run.all_correct
    return run


def test_fuzz_sweep_certifies_bounds_and_parity(benchmark):
    run = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    records = [r.deterministic_record() for r in run.results]
    assert len(records) == PLANES * BENCH_COUNT

    violations = bound_violations(records)
    assert violations == [], violations
    failures = all_parity_failures(records)
    assert failures == [], failures

    cert = certification_payload(records)
    print(
        f"\nfuzz-bench: {cert['scenarios_checked']} scenarios, "
        f"{cert['formula_certified']} formula-certified, "
        f"{cert['cut_checked']} cut-certified, 0 violations"
    )
    # The sweep must actually exercise both oracles.
    assert cert["formula_certified"] > 0
    assert cert["cut_checked"] > cert["formula_certified"]
    # The bits floor actually bound something on every certified run.
    for r in records:
        if r["formula_certified"]:
            assert r["cut_bits"] >= r["tribes_bits_floor"] > 0
