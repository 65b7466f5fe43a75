"""Jump differential — both round planes, jumping vs stepping every round.

The compiled engine (:func:`repro.network.program.run_program`) and the
count plane (:func:`repro.costmodel.evaluate_timing`) each skip steady
streaming arithmetically, with independently written horizons and
mailbox materialization.  A wrong horizon or a mis-materialized stream
is off by one cycle somewhere, which small instances rarely reach: the
400-run fuzz gate runs at N≈32, where most phases end before they are
steady.  This bench is the search PR 13 ran ad hoc, committed: fuzz
specs scaled ×8 so streams are long, each one

* priced by ``evaluate_timing`` with the jump on and off
  (``_steady_cycles`` patched to decline), and
* run by ``run_program`` with ``fast_forward`` on and off,

and all four required equal on rounds, total bits, busiest link-round
and per-link bits.  The jump counters guard the comparison itself: every stepping
run must jump no round, and the jumping runs must jump some in total —
a refactor that inlined ``_steady_cycles`` and left it behind would
otherwise turn the count-plane check into jumping vs jumping.  After
touching a jump guard, run it; to size a mutation, break the guard and
see which scenario it names.
"""

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
SCALE = 8
MAX_ROUNDS = 10_000_000
ENGINE_JUMPED = "engine.fast_forward_rounds"
PRICED_JUMPED = "costmodel.fast_forward_rounds"


def _jumped(counter, run):
    """``run()``'s result and the rounds it jumped (``counter``'s delta)."""
    before = COUNTERS.snapshot()
    result = run()
    return result, counter_delta(before, COUNTERS.snapshot()).get(counter, 0)


def four_ways(spec):
    """(engine jumping, engine stepping, count plane jumping, count
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
    steady_cycles = timing_module._steady_cycles
    timing_module._steady_cycles = lambda *_args: 0
    try:
        stepping = _jumped(PRICED_JUMPED, price)
    finally:
        timing_module._steady_cycles = steady_cycles
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
    # patch above no longer reaches the jump, or fast_forward is ignored.
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


def test_jumping_equals_stepping_on_scaled_fuzz_specs():
    print_banner(
        f"jump differential: {len(MASTER_SEEDS)} x {COUNT} fuzz specs "
        f"at x{SCALE}, engine and count plane, jumping vs stepping"
    )
    failures = []
    jumped = {"engine": 0, "count plane": 0}
    for master in MASTER_SEEDS:
        for spec in generate_scenarios(master, COUNT):
            spec = spec.with_(n=spec.n * SCALE)
            failed = disagreements(spec, jumped)
            if failed:
                failures.append((spec.label, failed))
        print(f"master seed {master}: {COUNT} specs compared four ways")
    print(f"rounds jumped: {jumped}")
    assert not failures, failures
    # Both jumping halves really jumped, so neither comparison was
    # stepping against stepping.
    assert all(jumped.values()), jumped
