"""Jump differential — both round planes, dormant vs stepping every round.

The compiled engine (:func:`repro.network.program.run_program`) and the
count plane (:func:`repro.costmodel.evaluate_timing`) each let steady
streaming sleep and catch it up arithmetically, with independently
written horizons, wake rules and mailbox materialization.  A wrong
horizon or a mis-materialized stream is off by one cycle somewhere,
which small instances rarely reach: the 200-run fuzz gate runs at
N≈32, where most phases end before they are steady.  This bench is
that search, committed: fuzz specs scaled ×8 so streams are long, each
one

* priced by ``evaluate_timing`` with dormancy on and off
  (``_settle``, the one function that decides what goes dormant,
  patched to settle nothing, so every stream steps every round — a
  star's gated combines included), and
* run by ``run_program`` with ``fast_forward`` on and off (off steps
  every node, with all of its streams, every round),

and all four required equal on rounds, total bits, busiest link-round
and per-link bits.  Two populations: the 200 fuzz specs as sampled
(2 to 8 nodes), and 48 of them moved onto large topologies (expanders
of 16–64 nodes, hypercubes of dimension 4–6, grids up to 6×8, rings of
10–32 and 3-regular graphs of 16–40 nodes), where many streams are
dormant at once.  The skip counters guard the comparison itself: every
stepping run must skip no round, and the dormant runs must skip some in
total — a refactor that bypassed ``_settle`` would otherwise turn the
count-plane check into dormant vs dormant.  After touching a settle or
wake rule, run it; to size a mutation, break the rule and see which
scenario it names.
"""

import random

from repro.costmodel import evaluate_timing, extract_skeleton
from repro.costmodel import timing as timing_module
from repro.lab.generate import generate_scenarios
from repro.network.program import run_program
from repro.obs.counters import COUNTERS, counter_delta
from repro.pipeline import plan_scenario
from repro.protocols import compile_round_programs

from conftest import print_banner

MASTER_SEEDS = (20190625, 777)
COUNT = 100
#: The large-topology population: the first specs of this master seed,
#: each moved onto a topology drawn from its own seed.
LARGE_MASTER_SEED = 777
LARGE_COUNT = 48
SCALE = 8
MAX_ROUNDS = 10_000_000
ENGINE_JUMPED = "engine.fast_forward_rounds"
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


def _jumped(counter, run):
    """``run()``'s result and the rounds it jumped (``counter``'s delta)."""
    before = COUNTERS.snapshot()
    result = run()
    return result, counter_delta(before, COUNTERS.snapshot()).get(counter, 0)


def four_ways(spec):
    """(engine jumping, engine stepping, count plane dormant, count
    plane stepping) for one scenario, each as ``(result, rounds it
    jumped)``."""
    planner, plan = plan_scenario(spec)
    topology = planner.topology
    engine = [
        _jumped(ENGINE_JUMPED, lambda fast_forward=fast_forward: run_program(
            topology, plan.capacity_bits,
            compile_round_programs(plan, planner.query, topology),
            max_rounds=MAX_ROUNDS, fast_forward=fast_forward,
        ))
        for fast_forward in (True, False)
    ]
    skeleton = extract_skeleton(plan, tuple(topology.nodes), planner.query)

    def price():
        return evaluate_timing(skeleton, max_rounds=MAX_ROUNDS)

    jumping = _jumped(PRICED_JUMPED, price)
    settle = timing_module._settle
    timing_module._settle = lambda *_args: []
    try:
        stepping = _jumped(PRICED_JUMPED, price)
    finally:
        timing_module._settle = settle
    return engine[0], engine[1], jumping, stepping


def disagreements(spec, jumped):
    """Names of the comparisons that fail on ``spec`` (empty = exact);
    adds the rounds each jumping run skipped to ``jumped``."""
    (fast, fast_jumped), (slow, slow_jumped), (jumping, priced_jumped), (
        stepping, stepping_jumped) = four_ways(spec)
    jumped["engine"] += fast_jumped
    jumped["count plane"] += priced_jumped
    failed = []
    # A stepping run that jumps compares jumping with jumping: the
    # patch above no longer reaches the settle rule, or fast_forward is
    # ignored.
    if slow_jumped:
        failed.append("engine stepping run jumped")
    if stepping_jumped:
        failed.append("count plane stepping run jumped")
    for name in ("rounds", "total_bits", "max_edge_bits_per_round",
                 "bits_per_edge"):
        if getattr(fast, name) != getattr(slow, name):
            failed.append(f"engine {name}")
    if jumping != stepping:
        failed.append("count plane")
    if (slow.rounds, slow.total_bits, slow.max_edge_bits_per_round,
            slow.bits_per_edge) != (
            stepping.rounds, stepping.total_bits,
            stepping.max_edge_bits_per_round, stepping.bits_per_edge):
        failed.append("engine vs count plane")
    return failed


def _compare(specs, label, failures, jumped):
    for spec in specs:
        failed = disagreements(spec.with_(n=spec.n * SCALE), jumped)
        if failed:
            failures.append((spec.label, failed))
    print(f"{label}: {len(specs)} specs compared four ways")


def test_jumping_equals_stepping_on_scaled_fuzz_specs():
    print_banner(
        f"jump differential: {len(MASTER_SEEDS)} x {COUNT} fuzz specs "
        f"and {LARGE_COUNT} on large topologies at x{SCALE}, engine and "
        f"count plane, dormant vs stepping"
    )
    failures = []
    jumped = {"engine": 0, "count plane": 0}
    for master in MASTER_SEEDS:
        _compare(generate_scenarios(master, COUNT), f"master seed {master}",
                 failures, jumped)
    large = {"engine": 0, "count plane": 0}
    _compare(large_specs(), "large topologies", failures, large)
    print(f"rounds jumped: {jumped}; on large topologies: {large}")
    assert not failures, failures
    # Both dormant halves really skipped, on both populations, so no
    # comparison was stepping against stepping.
    assert all(jumped.values()) and all(large.values()), (jumped, large)
