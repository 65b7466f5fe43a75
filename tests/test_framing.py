"""Bit framing against item framing, on all three round planes.

Streams frame bits: a sender puts ``min(bits available, room)`` bits on
a link each round and an item may straddle rounds.  The rounds this
saves are measured against ``tests/golden/framing_rounds.json``, which
holds, per spec, the rounds and total bits of the *item-framed*
protocol (every broadcast tuple and convergecast slot inside one round,
routed items cut into chunks that never shared a round with the next
item), written by that code before bit framing replaced it.  Per spec
and per plane — the generator engine, a compiled run (whose clock is
the count plane's run of the skeleton it builds from its own payload
counts) and the count plane on the priced skeleton — this module
asserts:

* the planes agree on rounds and per-link bits;
* the bits are the item-framed bits exactly (framing moves no bit);
* the rounds are at most the item-framed rounds;
* the rounds are at least the per-link floor, the most rounds any one
  directed link needs at ``B`` bits a round.

The specs are ``generate_scenarios(777, 40)`` at ×1 and ×8 and the specs
of the ledger's five workloads (``benchmarks/ledger/inputs.py``, seed 1):
``stream-line-xl``, ``wide-expander``, the twelve ``fuzz-sweep``
identities and the 28 sessions the two ``serve-*`` workloads price.
"""

import json
import math
import os

import pytest

from repro.costmodel import evaluate_timing, extract_skeleton
from repro.lab.generate import generate_scenarios
from repro.lab.spec import ScenarioSpec
from repro.pipeline import plan_scenario
from repro.protocols import run_distributed_faq
from repro.workloads import spawn_seeds

FRAMING_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "framing_rounds.json"
)

MAX_ROUNDS = 10_000_000

_FAST_PLANE = dict(backend="columnar", engine="compiled", solver="compiled")


def _ledger_star(family, n, seed):
    return ScenarioSpec(
        family=family, query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=n,
        assignment="worst-case", seed=seed, **_FAST_PLANE,
    )


def _ledger_cases():
    """The ledger's workload specs at its full sizes and seed 1."""
    cases = {
        "ledger-stream-line-xl": _ledger_star("ledger-stream-line", 8192, 1),
        "ledger-wide-expander": ScenarioSpec(
            family="ledger-wide-expander", query="acyclic",
            query_params={"edges": 8, "arity": 3}, topology="expander",
            topology_params={"n": 64, "degree": 4, "seed": 1}, n=500,
            domain_size=64, semiring="counting", seed=3, **_FAST_PLANE,
        ),
    }
    for i, spec in enumerate(generate_scenarios(20260930, 12)):
        cases[f"ledger-fuzz-sweep-{i:02d}"] = spec
    serve = list(generate_scenarios(20260931, 24))
    for n, seed in zip((2048, 4096, 8192, 8192), spawn_seeds(2, 4)):
        serve.append(_ledger_star("ledger-serve-star", n, seed))
    for i, spec in enumerate(serve):
        cases[f"ledger-serve-{i:02d}"] = spec
    return cases


#: ``name -> spec``.
FRAMING_CASES = {
    **{
        f"fuzz777-{i:02d}-x{scale}": spec.with_(n=spec.n * scale)
        for scale in (1, 8)
        for i, spec in enumerate(generate_scenarios(777, 40))
    },
    **_ledger_cases(),
}


def _three_planes(spec):
    """``(plane, rounds, bits_per_edge, capacity)`` of one spec on the
    generator engine, a compiled run and the count plane."""
    planner, plan = plan_scenario(spec)
    query, topology = planner.query, planner.topology
    generator, compiled = (
        run_distributed_faq(
            query, topology, plan.assignment, plan=plan, engine=engine,
            max_rounds=MAX_ROUNDS,
        ).simulation
        for engine in ("generator", "compiled")
    )
    priced = evaluate_timing(
        extract_skeleton(plan, tuple(topology.nodes), query),
        max_rounds=MAX_ROUNDS,
    )
    return [
        (plane, result.rounds, result.bits_per_edge, plan.capacity_bits)
        for plane, result in (("generator", generator),
                              ("compiled", compiled), ("count", priced))
    ]


def framing_record(name):
    """What ``framing_rounds.json`` holds for one case (also its
    generator, run on the item-framed code): that code's rounds and
    total bits, which its three planes agreed on."""
    spec = FRAMING_CASES[name]
    planes = _three_planes(spec)
    (_, rounds, bits_per_edge, _), *others = planes
    assert all(
        (r, b) == (rounds, bits_per_edge) for _, r, b, _ in others
    ), name
    return {
        "label": spec.label,
        "item_framed_rounds": rounds,
        "total_bits": sum(bits_per_edge.values()),
    }


def per_link_floor(bits_per_edge, capacity):
    """The rounds the busiest directed link needs at ``capacity`` bits a
    round: a lower bound for any schedule sending these per-link bits."""
    return max(
        (math.ceil(bits / capacity) for bits in bits_per_edge.values()),
        default=0,
    )


@pytest.fixture(scope="module")
def framing_golden():
    with open(FRAMING_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_framing_golden_covers_every_case(framing_golden):
    assert sorted(framing_golden) == sorted(FRAMING_CASES)
    assert all(
        framing_golden[name]["label"] == spec.label
        for name, spec in FRAMING_CASES.items()
    )


@pytest.mark.parametrize("name", sorted(FRAMING_CASES))
def test_bit_framing_within_item_framing_and_link_floor(name, framing_golden):
    expected = framing_golden[name]
    planes = _three_planes(FRAMING_CASES[name])
    _, rounds, bits_per_edge, _ = planes[0]
    for plane, plane_rounds, plane_bits, capacity in planes:
        assert (plane_rounds, plane_bits) == (rounds, bits_per_edge), plane
        assert sum(plane_bits.values()) == expected["total_bits"], plane
        assert plane_rounds <= expected["item_framed_rounds"], plane
        assert plane_rounds >= per_link_floor(plane_bits, capacity), plane
