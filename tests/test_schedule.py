"""The plan's schedule is what every round plane runs.

``protocols/schedule.py`` decides, once per plan, each node's stars,
streams (tag, parent, sorted children) and route.  The count plane's
``_Program`` — the clock of compiled runs and of pricing — must walk
exactly that sequence; the generator engine is held to it by engine
parity and the trace replay gate.
"""

import pytest

from repro.costmodel import extract_skeleton
from repro.lab.suites import get_suite
from repro.pipeline import identity_key, plan_scenario
from repro.protocols.schedule import StarShape, build_schedule
from repro.protocols.timing import _build_programs, _Compute, _Parallel

FUZZ_IDENTITIES = list({
    identity_key(spec): spec for spec in get_suite("fuzz").scenarios
}.values())


def _scheduled_streams(node_schedule):
    """``(tag, parent, children)`` of a node's streams, in op order."""
    streams = []
    for role in node_schedule.stars:
        streams.extend(role.scatter)
        streams.extend(role.combine)
    if node_schedule.route is not None:
        streams.append(node_schedule.route)
    return [(s.tag, s.parent, tuple(s.children)) for s in streams]


@pytest.mark.parametrize(
    "spec", FUZZ_IDENTITIES, ids=[spec.label for spec in FUZZ_IDENTITIES]
)
def test_count_programs_run_the_plan_schedule(spec):
    planner, plan = plan_scenario(spec)
    query, topology = planner.query, planner.topology
    counted = _build_programs(
        extract_skeleton(plan, tuple(topology.nodes), query)
    )
    for node in topology.nodes:
        scheduled = plan.schedule[node]
        items = counted[node].items
        assert [
            (m.tag, m.parent, tuple(m.children))
            for op in items if isinstance(op, _Parallel) for m in op.members
        ] == _scheduled_streams(scheduled)
        # Per star a parallel group (its scatter and combine streams)
        # and a compute step, then the route's own group and the output
        # player's finish; a traced run shows each compute's label.
        kinds = [_Parallel, _Compute] * len(scheduled.stars)
        labels = [f"s{role.star_id}:rebuild" for role in scheduled.stars]
        if scheduled.route is not None:
            kinds.append(_Parallel)
        if scheduled.is_output:
            kinds.append(_Compute)
            labels.append("finish")
        assert [type(op) for op in items] == kinds
        assert [op.label for op in items if isinstance(op, _Compute)] == labels


def test_build_schedule_on_two_hand_built_stars():
    # Stars bottom-up, each tree's children sorted, roots and terminals
    # flagged; a node in no tree and off the route gets an empty program.
    schedule = build_schedule(
        ["a", "b", "c", "idle"],
        [
            StarShape(0, [{"a": None, "c": "a", "b": "a"}], ("a", "c")),
            StarShape(1, [{"b": None}, {"b": None, "a": "b"}], ("a", "b")),
        ],
        {"b": None, "a": "b"},
        "b",
    )
    a = schedule["a"]
    assert [(r.star_id, r.trees, r.is_root, r.is_terminal) for r in a.stars] == [
        (0, (0,), True, True), (1, (1,), False, True),
    ]
    assert a.stars[0].scatter[0] == ("s0:bc:t0", None, ("b", "c"))
    assert a.stars[1].combine[0] == ("s1:cc:t1", "b", ())
    assert (a.route, a.is_output) == (("final", "b", ()), False)
    b = schedule["b"]
    assert [r.trees for r in b.stars] == [(0,), (0, 1)]
    assert b.stars[0].is_terminal is False
    assert (b.route, b.is_output) == (("final", None, ("a",)), True)
    assert schedule.children("b", 1, 1) == ("a",)
    idle = schedule["idle"]
    assert (idle.stars, idle.route, idle.is_output) == ((), None, False)
