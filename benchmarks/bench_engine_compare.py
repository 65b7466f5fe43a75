"""Engine comparison — generator vs compiled protocol engine.

A compiled run does the protocol's data work once, on the columnar
block data plane, and reads its rounds and bits from the count plane
(:mod:`repro.protocols.timing`); the generator engine steps one
generator per node per round.  This bench runs the lab's ``scaling`` suite
on *both* engines, prints one row of protocol wall times per pair (it
writes no file), and asserts two contracts:

* **exact parity** — every generator/compiled pair agrees on the answer
  digest, the round count and the total bit count (the lab's
  ``parity_failures`` check: byte-identical accounting, not tolerance);
* **speedup shape** — on the largest streaming scenario (the
  ``scaling-xl`` hard-star rows on the columnar data plane) the compiled
  engine's protocol wall-clock is at least ``SPEEDUP_FLOOR`` times
  faster (50-65x over five runs on a 2-core x86-64 host: the count
  plane's skips make thousands of pipeline rounds cost O(1) Python;
  the 5x floor keeps the assertion robust on slow or noisy CI machines).
  The N <= 64 rows are dominated by fixed costs and run within a factor
  of two of the generator, either way.
"""

import json

from repro.lab import get_suite, run_suite
from repro.lab.report import parity_failures, timings_payload
from repro.lab.suites import with_engines

from conftest import print_banner

SPEEDUP_FLOOR = 5.0


def test_engine_compare_scaling_suite():
    print_banner("protocol engines on the scaling suite: generator vs compiled")
    suite = with_engines(
        get_suite("scaling"), "scaling", get_suite("scaling").description
    )
    run = run_suite(suite)  # no cache: wall times must be real
    assert run.all_correct, "some scenario disagreed with the reference solver"

    records = [r.deterministic_record() for r in run.results]
    failures = parity_failures(records)
    assert not failures, f"engine parity violated: {failures}"

    timings = timings_payload(run)
    header = f"{'scenario':<58} {'rows':>6} {'gen ms':>8} {'comp ms':>8} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for pair in timings["engine_pairs"]:
        speedup = pair["protocol_speedup"]
        speedup_col = f"{speedup:>8.1f}" if speedup is not None else f"{'-':>8}"
        print(
            f"{pair['label'].split('/s2')[0][:58]:<58} {pair['rows']:>6} "
            f"{pair['generator_protocol_s'] * 1e3:>8.1f} "
            f"{pair['compiled_protocol_s'] * 1e3:>8.1f} "
            + speedup_col
        )
    headline = timings["headline"]
    print(
        f"\nlargest scenario ({headline['largest_scenario']}): "
        f"{headline['protocol_speedup']:.1f}x"
    )
    print(json.dumps({"headline": headline}, indent=2, sort_keys=True))
    assert headline["protocol_speedup"] >= SPEEDUP_FLOOR, (
        f"compiled engine only {headline['protocol_speedup']:.1f}x faster on "
        f"the largest scaling scenario (floor {SPEEDUP_FLOOR}x)"
    )
