"""Skeleton-level properties of the count plane.

Scenarios reach only the skeletons ``generate_scenarios`` and
``extract_skeleton`` produce; the dormancy bugs of the past came from
shapes they rarely make (a header that completes mid-frame, a gate
readying 1.5 tuples a round behind a 12-bit link, a deep route).  A
:class:`~repro.protocols.timing.CostSkeleton` is a small frozen value,
so this module draws it directly:

* random trees over at most 8 nodes, up to three stars of one or two
  edge-disjoint packing trees each, some slices empty;
* capacities around the 32-bit header, capacities that share factors
  with the tuple and value widths and capacities that do not;
* a route that is a random tree or a path (the deepest one), with
  payloads of zero to a few items per node.

On each: jumping equals stepping every stream every round on all four
metrics; a traced jumping run replays (:func:`repro.obs.verify
.replay_trace`) to the same four; and a star whose two trees share a
link is refused.  Tier-1's profile is derandomized with a fixed
example count, so tier-1 stays deterministic; CI's ``fuzz-certify`` job
also runs the larger, randomized ``skeleton-fuzz`` profile.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.trace import RecordingTracer
from repro.obs.verify import replay_trace
from repro.protocols import HEADER_BITS
from repro.protocols import timing as timing_module
from repro.protocols.timing import (
    CostModelError,
    CostSkeleton,
    RouteSkeleton,
    StarSkeleton,
    evaluate_timing,
    run_timing,
)

MAX_ROUNDS = 1_000_000

#: Tier-1's profile, or the larger ``skeleton-fuzz`` one of
#: ``tests/conftest.py`` when pytest loads it (``--hypothesis-profile``).
PROFILE = (
    settings()
    if settings.get_current_profile_name() == "skeleton-fuzz"
    else settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
)


@st.composite
def _tree(draw, nodes, root, avoid=frozenset()):
    """Parent pointers of a random tree rooted at ``root`` over a subset
    of ``nodes``, using no undirected edge in ``avoid``."""
    others = [node for node in nodes if node != root]
    members = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    parents = {root: None}
    for node in members:
        choices = [p for p in parents if frozenset((node, p)) not in avoid]
        if choices:
            parents[node] = draw(st.sampled_from(choices))
    return parents


def _edges(parents):
    return {frozenset((node, parent)) for node, parent in parents.items()
            if parent is not None}


@st.composite
def _widths(draw):
    """``(capacity, tuple_bits, value_bits)``: a capacity near the
    header, one sharing a factor with a width, or one coprime to both."""
    tuple_bits = draw(st.integers(1, 40))
    value_bits = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["header", "shared", "coprime"]))
    if kind == "header":
        capacity = HEADER_BITS + draw(st.integers(-1, 1))
    elif kind == "shared":
        width = draw(st.sampled_from([tuple_bits, value_bits]))
        capacity = max(width * draw(st.integers(1, 3)) // draw(
            st.sampled_from([1, 2])), 1)
    else:
        capacity = draw(st.sampled_from([7, 11, 13, 17, 19, 23, 29, 37]))
    return capacity, tuple_bits, value_bits


@st.composite
def skeletons(draw):
    size = draw(st.integers(2, 8))
    nodes = tuple(f"n{i}" for i in range(size))
    capacity, tuple_bits, value_bits = draw(_widths())
    stars = []
    for star_id in range(draw(st.integers(0, 3))):
        root = draw(st.sampled_from(nodes))
        trees = [draw(_tree(nodes, root))]
        if draw(st.booleans()):
            trees.append(draw(_tree(nodes, root, avoid=_edges(trees[0]))))
        counts = tuple(draw(st.integers(0, 30)) for _ in trees)
        stars.append(StarSkeleton(star_id, f"R{star_id}", tuple(trees), counts))
    output = draw(st.sampled_from(nodes))
    if draw(st.booleans()):  # a path: the deepest route
        order = draw(st.permutations(nodes))
        order = [output] + [node for node in order if node != output]
        route = {node: (order[i - 1] if i else None)
                 for i, node in enumerate(order)}
    else:
        route = draw(_tree(nodes, output))
    payloads = {node: draw(st.integers(0, 10)) for node in route}
    return CostSkeleton(
        nodes=nodes, output_player=output, capacity=capacity,
        tuple_bits=tuple_bits, value_bits=value_bits, stars=tuple(stars),
        route=RouteSkeleton(parents=route, payload_counts=payloads),
    )


def _metrics(cost):
    return (cost.rounds, cost.total_bits, cost.max_edge_bits_per_round,
            list(cost.bits_per_edge.items()))


@PROFILE
@given(skeleton=skeletons())
def test_jumping_equals_stepping_and_the_trace_replays(skeleton):
    jumping = evaluate_timing(skeleton, MAX_ROUNDS)
    with mock.patch.object(timing_module, "_settle", lambda *_args: []):
        stepping = evaluate_timing(skeleton, MAX_ROUNDS)
    assert _metrics(jumping) == _metrics(stepping)
    tracer = RecordingTracer()
    traced = run_timing(skeleton, MAX_ROUNDS, tracer).cost
    assert _metrics(traced) == _metrics(jumping)
    replayed = replay_trace(tracer.events)
    assert (replayed.rounds, replayed.total_bits,
            replayed.max_edge_bits_per_round, replayed.bits_per_edge) == (
        jumping.rounds, jumping.total_bits,
        jumping.max_edge_bits_per_round, dict(jumping.bits_per_edge))


@PROFILE
@given(skeleton=skeletons(), data=st.data())
def test_a_star_whose_trees_share_a_link_is_refused(skeleton, data):
    starred = [star for star in skeleton.stars if len(star.trees[0]) > 1]
    if not starred:
        return
    star = data.draw(st.sampled_from(starred))
    first = star.trees[0]
    child = data.draw(st.sampled_from(
        [node for node, parent in first.items() if parent is not None]))
    # A second tree over the first one's path from ``child`` to the root:
    # both scatters leave the root on one link, as both combines do
    # ``child``.
    broken = StarSkeleton(star.star_id, star.center_edge,
                          (first, _path_to_root(first, child)),
                          star.counts[:1] + (3,))
    stars = tuple(broken if s is star else s for s in skeleton.stars)
    bad = CostSkeleton(
        skeleton.nodes, skeleton.output_player, skeleton.capacity,
        skeleton.tuple_bits, skeleton.value_bits, stars, skeleton.route)
    with pytest.raises(CostModelError, match="share the link"):
        evaluate_timing(bad, MAX_ROUNDS)


def _path_to_root(parents, node):
    """The tree's path from ``node`` up to its root, as a tree."""
    path = {}
    while node is not None:
        path[node] = parents[node]
        node = parents[node]
    return path
