"""Solver comparison — operator at a time vs the compiled FAQ solver.

The compiled solver runs the same variable-elimination loop over the
query's interned factors (one shared dictionary per variable, made once
per query object and kept on it; the operator solver, the reference,
reads the factors as they are), sends each plain-⊕ step to the fused
join+marginalize kernel of :mod:`repro.faq.executor` and takes its
elimination order from :data:`~repro.faq.plan.PLAN_CACHE`.  This bench
runs the lab's ``solver-scaling``
suite on *both* solvers and regenerates the ``BENCH_lab.json`` timings
trajectory, asserting the layer's two contracts:

* **exact parity** — every operator/compiled pair agrees on the answer
  digest, the round count and the total bit count (the lab's
  ``parity_failures`` check over the solver axis: byte-identical answers,
  and untouched protocol accounting since the solver only changes free
  internal computation);
* **speedup shape** — on the largest scaling scenario (the ``solver-xl``
  hard-star row at N=32768 on the columnar data plane) the compiled
  solver's reference-solve wall-clock is at least ``SPEEDUP_FLOOR`` times
  faster (in practice 10-16x: shared dictionary interning deletes the
  per-join Python dictionary merges and the fused kernels never
  materialize a joined factor; the 5x floor keeps the assertion robust on
  slow or noisy CI machines).

Within the run the order cache must miss exactly once per distinct
query structure, and a second pass over the same specs, the cache still
warm, must be served from it entirely — the cross-scenario reuse a grid
sweep relies on.
"""

import json

from repro.faq import PLAN_CACHE, plan
from repro.lab import execute_scenario, get_suite, run_suite
from repro.obs.counters import COUNTERS, counter_delta
from repro.lab.report import parity_failures, timings_payload
from repro.lab.suites import with_solvers

from conftest import print_banner

SPEEDUP_FLOOR = 5.0


def test_solver_compare_scaling_suite(monkeypatch):
    print_banner("FAQ solvers on the solver-scaling suite: operator vs compiled")
    base = get_suite("solver-scaling")
    suite = with_solvers(base, "solver-scaling", base.description)
    keys = []
    order_key = plan._order_key

    def spy(query, order):
        key = order_key(query, order)
        keys.append(key)
        return key

    monkeypatch.setattr(plan, "_order_key", spy)
    run = run_suite(suite)  # no cache: wall times must be real
    assert run.all_correct, "some scenario disagreed with the reference solver"

    records = [r.deterministic_record() for r in run.results]
    failures = parity_failures(records, "solver")
    assert not failures, f"solver parity violated: {failures}"

    structures = len({key for key in keys if key is not None})
    misses = PLAN_CACHE.stats.misses
    assert 0 < misses == structures, (
        f"order cache missed {misses} times for {structures} structures"
    )
    hits = PLAN_CACHE.stats.hits
    before = COUNTERS.snapshot()
    for spec in suite.scenarios:  # no clear: the cache stays warm
        assert execute_scenario(spec).correct
    lookups = counter_delta(before, COUNTERS.snapshot())["plan_cache.lookups"]
    assert PLAN_CACHE.stats.misses == misses, (
        "order cache missed on the second sweep: structural keys unstable"
    )
    assert PLAN_CACHE.stats.hits - hits == lookups > 0, (
        "second sweep was not 100% order-cache served"
    )
    print(
        f"order cache: {misses} orders resolved for {structures} "
        f"structures; second sweep {lookups} lookups, 100% hits"
    )

    timings = timings_payload(run)
    header = (
        f"{'scenario':<58} {'rows':>6} {'op ms':>8} {'comp ms':>8} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for pair in timings["solver_pairs"]:
        speedup = pair["solver_speedup"]
        speedup_col = f"{speedup:>8.1f}" if speedup is not None else f"{'-':>8}"
        print(
            f"{pair['label'].split('/s2')[0][:58]:<58} {pair['rows']:>6} "
            f"{pair['operator_solver_s'] * 1e3:>8.1f} "
            f"{pair['compiled_solver_s'] * 1e3:>8.1f} "
            + speedup_col
        )
    headline = timings["solver_headline"]
    print(
        f"\nlargest scenario ({headline['largest_scenario']}): "
        f"{headline['solver_speedup']:.1f}x"
    )
    print(json.dumps({"solver_headline": headline}, indent=2, sort_keys=True))
    assert headline["solver_speedup"] >= SPEEDUP_FLOOR, (
        f"compiled solver only {headline['solver_speedup']:.1f}x faster on "
        f"the largest scaling scenario (floor {SPEEDUP_FLOOR}x)"
    )
