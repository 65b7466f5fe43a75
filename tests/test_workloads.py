"""Tests for the workload generators."""

import hashlib
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import (
    Hypergraph, gyo_reduce, is_acyclic, simple_graph_degeneracy,
)
from repro.semiring import BOOLEAN, COUNTING, REAL
from repro.workloads import (
    domains_for,
    matching_relation,
    random_acyclic_hypergraph,
    random_d_degenerate_query,
    random_forest_query,
    random_instance,
    random_relation,
    random_tree_query,
    random_weighted_relation,
)


def test_random_tree_query_is_tree():
    h = random_tree_query(7, seed=1)
    assert h.num_edges == 7
    assert h.num_vertices == 8
    assert is_acyclic(h)
    assert h.is_connected()


def test_random_forest_query_components():
    h = random_forest_query(3, 2, seed=2)
    assert len(h.connected_components()) == 3
    assert is_acyclic(h)


def test_random_d_degenerate_query_bound():
    for d in (1, 2, 3):
        h = random_d_degenerate_query(10, d, seed=d)
        assert simple_graph_degeneracy(h) <= d


def test_random_d_degenerate_achieves_d_usually():
    h = random_d_degenerate_query(12, 3, seed=0)
    assert simple_graph_degeneracy(h) == 3


def test_random_acyclic_hypergraph_properties():
    h = random_acyclic_hypergraph(6, 4, seed=3)
    assert h.num_edges == 6
    assert h.arity <= 4
    assert is_acyclic(h)
    assert h.is_connected()


@pytest.mark.parametrize(
    "generator, args",
    [
        (random_tree_query, (0,)),
        (random_forest_query, (0, 2)),
        (random_forest_query, (2, 0)),
        (random_d_degenerate_query, (1, 2)),
        (random_d_degenerate_query, (5, 0)),
        (random_acyclic_hypergraph, (3, 1)),
        (random_acyclic_hypergraph, (0, 3)),
        (random_acyclic_hypergraph, (-2, 3)),
    ],
)
def test_generator_validation(generator, args):
    # Arguments are checked before the RNG is seeded, so a rejected call
    # raises no make_rng(None) warning (or any other).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            generator(*args)


def test_random_relation_size_and_domain():
    domains = {"A": range(5), "B": range(5)}
    r = random_relation(("A", "B"), domains, 10, seed=4)
    assert len(r) == 10
    assert r.active_domain("A") <= set(range(5))


def test_random_relation_caps_at_capacity():
    domains = {"A": range(2), "B": range(2)}
    r = random_relation(("A", "B"), domains, 100, seed=5)
    assert len(r) == 4  # full product domain


def test_random_weighted_relation_annotations():
    domains = {"A": range(8)}
    r = random_weighted_relation(("A",), domains, 5, REAL, seed=6)
    assert all(0.1 <= v <= 1.0 for _t, v in r)
    assert r.semiring is REAL


def test_matching_relation_is_skew_free():
    r = matching_relation(("A", "B", "C"), 12, seed=7)
    assert len(r) == 12
    for var in r.schema:
        idx = r.column_index(var)
        values = [t[idx] for t in r.tuples()]
        assert len(set(values)) == len(values)  # each value used once


def test_domains_for():
    h = random_tree_query(3, seed=8)
    domains = domains_for(h, 6)
    assert set(domains) == h.vertices
    assert all(d == tuple(range(6)) for d in domains.values())


def test_random_instance_semiring_choice():
    h = random_tree_query(3, seed=9)
    factors, _domains = random_instance(h, 4, 5, seed=9, semiring=COUNTING)
    assert all(f.semiring is COUNTING for f in factors.values())
    weighted, _ = random_instance(
        h, 4, 5, seed=9, semiring=REAL, weighted=True
    )
    assert all(f.semiring is REAL for f in weighted.values())


def test_determinism():
    a, _ = random_instance(random_tree_query(4, seed=1), 5, 6, seed=2)
    b, _ = random_instance(random_tree_query(4, seed=1), 5, 6, seed=2)
    assert all(a[k] == b[k] for k in a)


#: Written before ``random_relation`` stopped copying a domain per cell
#: drawn: one list per schema column draws from the same ``_randbelow``
#: stream, so the same rows come out in the same order.
_INSTANCE_DIGESTS = {
    7: "f8e3a642db7106c5456055de8c9a503f785f49735e0eb8982e78e03b80c182ac",
    11: "43395daa38c7e3c31f0e7c9c996a7359352760b88427eb9784b157638f9d6133",
    20190625: "fa59a96fdf6276f78b51dfb67e8244b5eb837bce764b504c67d6721f838c9292",
}


@pytest.mark.parametrize("seed", sorted(_INSTANCE_DIGESTS))
def test_random_instance_rows_are_pinned(seed):
    factors, domains = random_instance(Hypergraph.star(4), 64, 500, seed=seed)
    weighted, _ = random_instance(
        Hypergraph.path(3), 8, 40, seed=seed, semiring=COUNTING,
        weighted=True, exact=True,
    )
    rows = [
        (name, factor.schema, list(factor))
        for group in (factors, weighted) for name, factor in group.items()
    ]
    digest = hashlib.sha256(repr((rows, sorted(domains.items()))).encode())
    assert digest.hexdigest() == _INSTANCE_DIGESTS[seed]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_degeneracy_invariant_property(seed, d):
    h = random_d_degenerate_query(8, d, seed=seed)
    assert simple_graph_degeneracy(h) <= d


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 4))
def test_acyclic_hypergraph_invariant_property(seed, edges, arity):
    h = random_acyclic_hypergraph(edges, arity, seed=seed)
    assert is_acyclic(h)
    assert h.arity <= arity


# ---------------------------------------------------------------------------
# Seed hygiene at the experiment boundary
# ---------------------------------------------------------------------------


def test_spawn_seeds_deterministic_and_distinct():
    from repro.workloads import SEED_SPACE, spawn_seeds

    a = spawn_seeds(42, 8)
    b = spawn_seeds(42, 8)
    assert a == b
    assert len(a) == 8
    assert len(set(a)) == 8  # overwhelmingly likely; pinned by determinism
    assert all(0 <= s < SEED_SPACE for s in a)
    assert spawn_seeds(43, 8) != a


def test_spawn_seeds_prefix_stability():
    """Adding call sites (asking for more seeds) never perturbs the
    earlier streams."""
    from repro.workloads import spawn_seeds

    assert spawn_seeds(7, 3) == spawn_seeds(7, 5)[:3]


def test_spawn_seeds_rejects_none_and_negative():
    from repro.workloads import spawn_seeds

    with pytest.raises(ValueError):
        spawn_seeds(None, 2)
    with pytest.raises(ValueError):
        spawn_seeds(1, -1)
    assert spawn_seeds(1, 0) == ()


def test_make_rng_warns_on_seedless_use():
    from repro.workloads import make_rng

    with pytest.warns(UserWarning, match="seed"):
        rng = make_rng(None)
    # Legacy behaviour preserved: seedless still aliases to seed 0.
    import random as _random

    assert rng.random() == _random.Random(0).random()


# ---------------------------------------------------------------------------
# Fuzz-plane property suite: generated structures honour their claims
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_tree_query_invariant_property(seed, edges):
    """Trees are connected, acyclic (GYO-reducible) simple graphs with
    exactly edges+1 vertices."""
    h = random_tree_query(edges, seed=seed)
    assert h.num_edges == edges
    assert h.num_vertices == edges + 1
    assert h.is_connected()
    assert is_acyclic(h)
    assert gyo_reduce(h).is_acyclic


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4))
def test_forest_query_invariant_property(seed, trees, edges):
    """Forests are acyclic with exactly `trees` connected components."""
    h = random_forest_query(trees, edges, seed=seed)
    assert h.num_edges == trees * edges
    assert len(h.connected_components()) == trees
    assert is_acyclic(h)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 4))
def test_acyclic_hypergraph_gyo_property(seed, edges, arity):
    """The hypertree-growth generator is alpha-acyclic per GYO and
    every edge stays within the arity bound."""
    h = random_acyclic_hypergraph(edges, arity, seed=seed)
    assert gyo_reduce(h).is_acyclic
    assert all(len(verts) <= arity for _name, verts in h.edges())


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 6),
    st.integers(1, 20),
    st.integers(1, 6),
)
def test_random_instance_respects_domains_property(seed, domain, size, edges):
    """Every generated tuple stays inside the declared domains and no
    relation exceeds min(requested size, domain capacity)."""
    h = random_tree_query(edges, seed=seed)
    factors, domains = random_instance(h, domain, size, seed=seed)
    assert set(domains) == set(h.vertices)
    for factor in factors.values():
        capacity = 1
        for v in factor.schema:
            assert set(domains[v]) == set(range(domain))
            capacity *= domain
        rows = list(factor.tuples())
        assert len(rows) == min(size, capacity)
        for row in rows:
            for v, value in zip(factor.schema, row):
                assert value in domains[v]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_weighted_exact_annotations_property(seed):
    """exact=True draws small-integer floats — the annotations whose
    folds are order-independent in double precision."""
    h = random_tree_query(3, seed=seed)
    factors, _ = random_instance(
        h, 6, 10, seed=seed, semiring=REAL, weighted=True, exact=True
    )
    for factor in factors.values():
        for _t, value in factor.rows.items():
            assert isinstance(value, float)
            assert value == int(value)
            assert 1 <= value <= 8


def test_random_query_structure_dispatch():
    from repro.workloads import STRUCTURE_KINDS, random_query_structure

    assert set(STRUCTURE_KINDS) == {"tree", "forest", "degenerate", "acyclic"}
    tree = random_query_structure("tree", seed=3, num_edges=4)
    assert tree == random_tree_query(4, seed=3)
    forest = random_query_structure(
        "forest", seed=3, num_trees=2, edges_per_tree=2
    )
    assert forest == random_forest_query(2, 2, seed=3)
    with pytest.raises(ValueError, match="unknown structure kind"):
        random_query_structure("nope", seed=1)
    with pytest.raises(ValueError, match="takes parameters"):
        random_query_structure("tree", seed=1, edges=4)


def test_identical_seeds_reproduce_relations_across_processes():
    """The cross-process determinism contract: a child process generating
    the same seeded instance produces byte-identical relations."""
    import subprocess
    import sys

    script = (
        "import hashlib, sys;"
        "sys.path.insert(0, 'src');"
        "from repro.workloads import random_instance, random_tree_query;"
        "h = random_tree_query(5, seed=77);"
        "factors, _ = random_instance(h, 7, 12, seed=78);"
        "payload = repr(sorted("
        "  (name, f.schema, sorted(f.rows.items(), key=repr))"
        "  for name, f in factors.items()));"
        "print(hashlib.sha256(payload.encode()).hexdigest())"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    import hashlib

    h = random_tree_query(5, seed=77)
    factors, _ = random_instance(h, 7, 12, seed=78)
    payload = repr(sorted(
        (name, f.schema, sorted(f.rows.items(), key=repr))
        for name, f in factors.items()
    ))
    local = hashlib.sha256(payload.encode()).hexdigest()
    assert child.stdout.strip() == local
