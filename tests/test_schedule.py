"""The plan's schedule is what every round plane runs.

``protocols/schedule.py`` decides, once per plan, each node's stars,
streams (tag, parent, sorted children) and route.  The compiled engine's
``NodeProgram`` and the count plane's ``_Program`` must walk exactly
that sequence; the generator engine is held to it by engine parity and
the trace replay gate.
"""

import pytest

from repro.costmodel import extract_skeleton
from repro.costmodel.timing import _build_programs, _Compute, _Parallel, _Route
from repro.lab.suites import get_suite
from repro.network.program import ComputeStep, ParallelOps, RouteOp
from repro.pipeline import identity_key, plan_scenario
from repro.protocols import compile_round_programs
from repro.protocols.schedule import StarShape, build_schedule

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


def _op_streams(items, parallel, route):
    streams = []
    for op in items:
        members = op.members if isinstance(op, parallel) else (
            [op] if isinstance(op, route) else []
        )
        streams.extend(
            (m.tag, m.parent, tuple(m.children)) for m in members
        )
    return streams


@pytest.mark.parametrize(
    "spec", FUZZ_IDENTITIES, ids=[spec.label for spec in FUZZ_IDENTITIES]
)
def test_compiled_and_count_programs_run_the_plan_schedule(spec):
    planner, plan = plan_scenario(spec)
    query, topology = planner.query, planner.topology
    compiled = compile_round_programs(plan, query, topology)
    counted = _build_programs(
        extract_skeleton(plan, tuple(topology.nodes), query)
    )
    for node in topology.nodes:
        scheduled = plan.schedule[node]
        expected = _scheduled_streams(scheduled)
        program = compiled[node]
        assert _op_streams(program.items, ParallelOps, RouteOp) == expected
        assert _op_streams(counted[node].items, _Parallel, _Route) == expected
        # The compiled engine's op labels, and the count plane's op kinds
        # (it steps every stream in a parallel group — a star's scatter
        # and combine in one — and a route in its own).
        labels = []
        for role in scheduled.stars:
            labels += [
                f"s{role.star_id}:{phase}" for phase in ("star", "rebuild")
            ]
        if scheduled.route is not None:
            labels.append("route:final")
        if scheduled.is_output:
            labels.append("finish")
        assert [op.label for op in program.items] == labels
        assert [type(op) for op in counted[node].items] == [
            {ParallelOps: _Parallel, ComputeStep: _Compute,
             RouteOp: _Parallel}[type(op)]
            for op in program.items
        ]


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
