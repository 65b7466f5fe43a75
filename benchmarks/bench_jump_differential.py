"""Jump differential — the count plane jumping, stepping, and the generator engine.

The count plane (:mod:`repro.protocols.timing`) is the clock of every
compiled run and of pricing.  It lets steady streaming sleep and
catches it up arithmetically; a wrong horizon or a mis-materialized
stream is off by one cycle somewhere, which small instances rarely
reach: the 200-run fuzz gate runs at N≈32, where most phases end
before they are steady.  This bench is that search, committed: fuzz
specs scaled ×8 so streams are long, each one

* priced by ``evaluate_timing`` with dormancy on and off (``_settle``,
  the one function that decides what goes dormant, patched to settle
  nothing, so every stream steps every round — a star's gated combines
  included), and
* run by the generator engine, the independent clock that ships real
  tuples and shares no round logic with the count plane,

and all three required equal on rounds, total bits, busiest link-round
and per-link bits (in key order).  Two populations: the 200 fuzz specs
as sampled (2 to 8 nodes), and 48 of them moved onto large topologies
(expanders of 16–64 nodes, hypercubes of dimension 4–6, grids up to
6×8, rings of 10–32 and 3-regular graphs of 16–40 nodes), where many
streams are dormant at once.  The skip counters guard the comparison
itself: every stepping run must skip no round, and the jumping runs
must skip some on each population — a refactor that bypassed
``_settle`` would otherwise turn the check into jumping vs jumping.
After touching a settle or wake rule, run it; to size a mutation, break
the rule and see which scenario it names.
"""

import random

import time

from repro.costmodel import evaluate_timing, extract_skeleton
from repro.lab.generate import generate_scenarios
from repro.obs.counters import COUNTERS, counter_delta
from repro.pipeline import plan_scenario
from repro.protocols import run_distributed_faq
from repro.protocols import timing as timing_module

from conftest import print_banner

MASTER_SEEDS = (20190625, 777)
COUNT = 100
#: The large-topology population: the first specs of this master seed,
#: each moved onto a topology drawn from its own seed.
LARGE_MASTER_SEED = 777
LARGE_COUNT = 48
SCALE = 8
MAX_ROUNDS = 10_000_000
PRICED_JUMPED = "costmodel.fast_forward_rounds"


def _large_topology(rng):
    """A topology family the fuzz samplers do not reach, and its
    parameters."""
    kind = rng.choice(("expander", "hypercube", "grid", "ring", "regular"))
    if kind == "expander":
        return kind, {"n": 2 * rng.randint(8, 32), "degree": rng.choice((3, 4)),
                      "seed": rng.randrange(100)}
    if kind == "hypercube":
        return kind, {"dim": rng.randint(4, 6)}
    if kind == "grid":
        return kind, {"rows": rng.randint(2, 6), "cols": rng.randint(3, 8)}
    if kind == "ring":
        return kind, {"n": rng.randint(10, 32)}
    return kind, {"n": 2 * rng.randint(8, 20), "degree": 3,
                  "seed": rng.randrange(100)}


def large_specs():
    """The large-topology population (deterministic)."""
    specs = []
    for spec in generate_scenarios(LARGE_MASTER_SEED, LARGE_COUNT):
        topology, params = _large_topology(random.Random(spec.seed))
        specs.append(spec.with_(topology=topology, topology_params=params))
    return specs


def _jumped(run):
    """``run()``'s result and the rounds it skipped."""
    before = COUNTERS.snapshot()
    result = run()
    delta = counter_delta(before, COUNTERS.snapshot())
    return result, delta.get(PRICED_JUMPED, 0)


def three_ways(spec):
    """(count plane jumping, count plane stepping, generator engine)
    for one scenario; the count plane's as ``(result, rounds it
    skipped)``."""
    planner, plan = plan_scenario(spec)
    topology = planner.topology
    skeleton = extract_skeleton(plan, tuple(topology.nodes), planner.query)

    def price():
        return evaluate_timing(skeleton, max_rounds=MAX_ROUNDS)

    jumping = _jumped(price)
    settle = timing_module._settle
    timing_module._settle = lambda *_args: []
    try:
        stepping = _jumped(price)
    finally:
        timing_module._settle = settle
    generator = run_distributed_faq(
        planner.query, topology, plan.assignment, plan=plan,
        engine="generator", max_rounds=MAX_ROUNDS,
    ).simulation
    return jumping, stepping, generator


def _metrics(run):
    return (run.rounds, run.total_bits, run.max_edge_bits_per_round,
            list(run.bits_per_edge.items()))


def disagreements(spec, jumped):
    """Names of the comparisons that fail on ``spec`` (empty = exact);
    adds the rounds the jumping run skipped to ``jumped``."""
    (jumping, skipped), (stepping, stepping_skipped), generator = \
        three_ways(spec)
    jumped[0] += skipped
    failed = []
    # A stepping run that skips compares jumping with jumping: the
    # patch above no longer reaches the settle rule.
    if stepping_skipped:
        failed.append("stepping run skipped")
    if _metrics(jumping) != _metrics(stepping):
        failed.append("jumping vs stepping")
    if _metrics(stepping) != _metrics(generator):
        failed.append("count plane vs generator engine")
    return failed


def _compare(specs, label, failures, jumped):
    start = time.perf_counter()
    for spec in specs:
        failed = disagreements(spec.with_(n=spec.n * SCALE), jumped)
        if failed:
            failures.append((spec.label, failed))
    print(f"{label}: {len(specs)} specs compared three ways "
          f"in {time.perf_counter() - start:.1f} s")


def test_jumping_equals_stepping_on_scaled_fuzz_specs():
    print_banner(
        f"jump differential: {len(MASTER_SEEDS)} x {COUNT} fuzz specs "
        f"and {LARGE_COUNT} on large topologies at x{SCALE}: the count "
        f"plane jumping and stepping, and the generator engine"
    )
    failures = []
    jumped, large = [0], [0]
    for master in MASTER_SEEDS:
        _compare(generate_scenarios(master, COUNT), f"master seed {master}",
                 failures, jumped)
    _compare(large_specs(), "large topologies", failures, large)
    print(f"rounds skipped: {jumped[0]}; on large topologies: {large[0]}")
    assert not failures, failures
    # The jumping runs really skipped, on both populations, so no
    # comparison was stepping against stepping.
    assert jumped[0] and large[0], (jumped, large)
