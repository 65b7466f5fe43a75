"""The compiled FAQ solver: fused kernels, interning, the order cache.

The contract under test: ``solver="compiled"`` produces byte-identical
answers to the operator-at-a-time path on both entry points that take
it (variable elimination and naive), the fused join+marginalize kernel
is equivalent to ``join`` then ``marginalize`` across semirings,
dictionary interning round-trips exactly, and elimination orders are
cached by query *structure* so a grid sweep that varies only
seed/N/assignment resolves each order once.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import Planner
from repro.faq import (
    PLAN_CACHE,
    PRODUCT,
    Aggregate,
    SOLVERS,
    FAQQuery,
    bcq,
    fused_join_marginalize,
    scalar_value,
    solve_message_passing,
    solve_naive,
    solve_variable_elimination,
    validate_solver,
)
from repro.core.memo import LRUMemo
from repro.faq.plan import _order_key, cached_elimination_order
from repro.faq.reference import solve
from repro.faq.variable_elimination import greedy_elimination_order
from repro.hypergraph import Hypergraph
from repro.lab.results import answer_digest
from repro.network.topology import Topology
from repro.obs.counters import COUNTERS, counter_delta, deterministic_view
from repro.protocols.faq_protocol import run_distributed_faq
from repro.semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    REAL,
    ColumnarFactor,
    Factor,
)
from repro.semiring.columnar import Dictionary, _encode_column, intern_factors
from repro.workloads import (
    domains_for,
    random_acyclic_hypergraph,
    random_d_degenerate_query,
    random_instance,
    random_tree_query,
)

SEMIRING_VALUES = {
    "boolean": st.just(True),
    "counting": st.integers(min_value=1, max_value=9),
    # Small integers as floats: ⊕-folds of any order are exact, so the
    # fused kernel must agree *bitwise* with the unfused path even though
    # float addition is not associative in general (the fold-order edge
    # case this suite pins).
    "real": st.integers(min_value=1, max_value=9).map(float),
    "min-plus": st.integers(min_value=-6, max_value=6).map(float),
}
SEMIRINGS = {
    "boolean": BOOLEAN,
    "counting": COUNTING,
    "real": REAL,
    "min-plus": MIN_PLUS,
}


# ---------------------------------------------------------------------------
# Whole-query parity: compiled vs operator
# ---------------------------------------------------------------------------


def _random_query(semiring, seed, n=24, backend=None, edges=4, arity=3):
    h = random_acyclic_hypergraph(edges, arity, seed=seed)
    factors, domains = random_instance(
        h, domain_size=8, relation_size=n, seed=seed + 1, semiring=semiring,
        weighted=semiring.name in ("real", "min-plus"),
    )
    return FAQQuery(
        hypergraph=h, factors=factors, domains=domains, free_vars=(),
        semiring=semiring, backend=backend,
    )


@pytest.mark.parametrize("backend", [None, "dict", "columnar"])
@pytest.mark.parametrize(
    "semiring", [BOOLEAN, COUNTING, REAL, MIN_PLUS], ids=lambda s: s.name
)
def test_compiled_parity_variable_elimination(semiring, backend):
    for seed in (3, 7, 11):
        q = _random_query(semiring, seed, backend=backend)
        ref = solve_variable_elimination(q)
        out = solve_variable_elimination(q, solver="compiled")
        assert out == ref
        assert dict(out.rows) == dict(ref.rows)


@pytest.mark.parametrize("backend", [None, "columnar"])
def test_compiled_parity_naive_and_message_passing(backend):
    """The compiled naive plan against both operator-level references
    (message passing has no compiled form of its own)."""
    for semiring in (BOOLEAN, COUNTING):
        q = _random_query(semiring, 5, backend=backend)
        compiled = solve_naive(q, solver="compiled")
        assert compiled == solve_naive(q)
        assert compiled == solve_message_passing(q)


def test_compiled_parity_mixed_aggregates_and_free_vars():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    rels = {
        "R": Factor(("A", "B"), {(1, 1): 2.0, (1, 2): 3.0, (2, 2): 1.0}, REAL),
        "S": Factor(("B", "C"), {(1, 1): 4.0, (2, 1): 5.0, (2, 3): 2.0}, REAL),
    }
    q = FAQQuery(
        hypergraph=h,
        factors=rels,
        domains={"A": (1, 2), "B": (1, 2), "C": (1, 3)},
        free_vars=("A",),
        semiring=REAL,
        aggregates={"C": PRODUCT},
        bound_order=("B", "C"),
    )
    ref = solve_variable_elimination(q)
    assert solve_variable_elimination(q, solver="compiled") == ref
    assert solve_naive(q, solver="compiled") == solve_naive(q)


def test_compiled_rejects_unknown_solver_and_bad_orders():
    q = _random_query(BOOLEAN, 1)
    with pytest.raises(ValueError, match="unknown solver"):
        solve_variable_elimination(q, solver="jit")
    assert validate_solver(None) == "operator"
    with pytest.raises(ValueError, match="exactly the bound"):
        solve_variable_elimination(q, order=("nope",), solver="compiled")


def test_compiled_dangling_bound_variable_raises_like_operator():
    # Z is an isolated vertex of H: bound, but in no factor.  Variable
    # elimination must reject it on both paths; solve_naive handles it.
    h = Hypergraph({"R": ("A",)}, vertices=("Z",))
    q = FAQQuery(
        hypergraph=h,
        factors={"R": Factor(("A",), {(1,): 2, (2,): 3}, COUNTING)},
        domains={"A": (1, 2), "Z": (1, 2, 3)},
        free_vars=("A",),
        semiring=COUNTING,
    )
    with pytest.raises(ValueError, match="bound variables in no factor"):
        solve_variable_elimination(q)
    with pytest.raises(ValueError, match="bound variables in no factor"):
        solve_variable_elimination(q, solver="compiled")
    assert solve_naive(q, solver="compiled") == solve_naive(q)


def test_solve_propagates_variable_elimination_errors(monkeypatch):
    # Only a dangling bound variable sends solve() to the naive solver;
    # any other failure of variable elimination is the caller's to see.
    def broken(query, solver=None):
        raise ValueError("kernel bug")

    monkeypatch.setattr("repro.faq.reference.solve_variable_elimination", broken)
    with pytest.raises(ValueError, match="kernel bug"):
        solve(_random_query(COUNTING, 1))


def test_solve_answers_dangling_queries_on_both_solvers():
    h = Hypergraph({"R": ("A",)}, vertices=("Z",))
    q = FAQQuery(
        hypergraph=h,
        factors={"R": Factor(("A",), {(1,): 2, (2,): 3}, COUNTING)},
        domains={"A": (1, 2), "Z": (1, 2, 3)},
        free_vars=("A",),
        semiring=COUNTING,
        backend="columnar",
    )
    expected = {(1,): 6, (2,): 9}  # each row times |dom(Z)|
    for solver in SOLVERS:
        assert dict(solve(q, solver).rows) == expected


# ---------------------------------------------------------------------------
# Which steps fuse
# ---------------------------------------------------------------------------


def _solver_counters(run):
    """The deterministic counters ``run()`` advanced."""
    before = COUNTERS.snapshot()
    result = run()
    return result, deterministic_view(counter_delta(before, COUNTERS.snapshot()))


def test_ve_plan_fuses_every_plain_sum_elimination():
    q = _random_query(COUNTING, 4)
    _, counted = _solver_counters(
        lambda: solve_variable_elimination(q, solver="compiled")
    )
    fused = counted.get("solver.fused_vectorized", 0)
    assert fused + counted.get("solver.fused_fallback", 0) == len(q.bound_vars)


def test_ve_plan_keeps_product_aggregates_unfused():
    h = Hypergraph({"R": ("A", "B")})
    q = FAQQuery(
        hypergraph=h,
        factors={"R": Factor(("A", "B"), {(1, 1): 2.0, (2, 1): 3.0}, REAL)},
        domains={"A": (1, 2), "B": (1,)},
        free_vars=("B",),
        semiring=REAL,
        aggregates={"A": PRODUCT},
    )
    out, counted = _solver_counters(
        lambda: solve_variable_elimination(q, solver="compiled")
    )
    assert out == solve_variable_elimination(q)
    assert "solver.fused_vectorized" not in counted
    assert "solver.fused_fallback" not in counted


def test_naive_plan_is_literal_join_then_aggregate():
    # Nothing fuses and nothing is cached: the compiled naive solve is
    # the operator loop over interned inputs.
    q = _random_query(COUNTING, 4, backend="columnar")
    PLAN_CACHE.clear()
    out, counted = _solver_counters(lambda: solve_naive(q, solver="compiled"))
    assert out == solve_naive(q)
    assert not any(name.startswith(("solver.", "plan_cache.")) for name in counted)
    assert PLAN_CACHE.stats.hits == PLAN_CACHE.stats.misses == 0


def test_plan_schemas_track_operator_results():
    q = _random_query(COUNTING, 6, backend="columnar")
    out, counted = _solver_counters(
        lambda: solve_variable_elimination(q, solver="compiled")
    )
    assert tuple(out.schema) == q.free_vars
    assert counted["solver.fused_vectorized"] == len(q.bound_vars)
    assert "solver.fused_fallback" not in counted


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_reuses_across_seeds_and_sizes():
    PLAN_CACHE.clear()
    h = random_tree_query(5, seed=13)
    for seed, n in ((1, 8), (2, 16), (3, 32)):
        factors, domains = random_instance(
            h, domain_size=8, relation_size=n, seed=seed
        )
        q = bcq(h, factors, domains)
        assert solve_variable_elimination(q, solver="compiled") == (
            solve_variable_elimination(q)
        )
    assert PLAN_CACHE.stats.misses == 1
    assert PLAN_CACHE.stats.hits == 2
    # What the three solves shared is the first one's greedy order.
    cached = cached_elimination_order(q, None, lambda: pytest.fail("miss"))
    assert cached == greedy_elimination_order(q)


def test_plan_cache_second_sweep_is_all_hits():
    """The acceptance criterion: a grid sweep re-run hits 100%."""
    PLAN_CACHE.clear()
    queries = []
    for seed in (21, 22):
        h = random_d_degenerate_query(5, 2, seed=seed)
        for n in (8, 16):
            factors, domains = random_instance(
                h, domain_size=8, relation_size=n, seed=seed + n
            )
            queries.append(bcq(h, factors, domains))
    for q in queries:
        solve_variable_elimination(q, solver="compiled")
    assert PLAN_CACHE.stats.misses == 2  # one order per structure
    hits_before = PLAN_CACHE.stats.hits
    for q in queries:
        solve_variable_elimination(q, solver="compiled")
    assert PLAN_CACHE.stats.misses == 2
    assert PLAN_CACHE.stats.hits == hits_before + len(queries)


def test_plan_cache_key_separates_structure_axes():
    q = _random_query(COUNTING, 8)
    base = _order_key(q, None)
    assert base is not None
    assert _order_key(q, None) == base  # a plain, hashable tuple
    hash(base)
    assert _order_key(q, q.elimination_order()) != base
    assert _order_key(q.with_backend("columnar"), None) != base
    q_real = _random_query(REAL, 8)
    assert _order_key(q_real, None) != base


def test_custom_aggregate_combine_is_uncacheable_but_correct():
    PLAN_CACHE.clear()
    h = Hypergraph({"R": ("A", "B")})
    q = FAQQuery(
        hypergraph=h,
        factors={"R": Factor(("A", "B"), {(1, 1): 2, (2, 1): 3}, COUNTING)},
        domains={"A": (1, 2), "B": (1,)},
        free_vars=("B",),
        semiring=COUNTING,
        aggregates={"A": Aggregate("max", "semiring", combine=max)},
    )
    assert _order_key(q, None) is None
    ref = solve_variable_elimination(q)
    before = COUNTERS.snapshot()
    assert solve_variable_elimination(q, solver="compiled") == ref
    delta = counter_delta(before, COUNTERS.snapshot())
    assert delta["plan_cache.uncacheable"] == 1
    assert "plan_cache.lookups" not in delta
    assert PLAN_CACHE.stats.hits == PLAN_CACHE.stats.misses == 0
    assert len(PLAN_CACHE) == 0


def test_plan_cache_lru_eviction():
    # The order cache is an LRUMemo: a hit refreshes its key, and an
    # insert past ``maxsize`` evicts the least recently used one.
    cache = LRUMemo("test.lru_eviction", maxsize=2)
    dummy = ("A", "B")

    def miss():
        pytest.fail("unexpected miss")

    assert cache.get_or_compute("a", lambda: dummy) is dummy
    assert cache.get_or_compute("b", lambda: dummy) is dummy
    assert cache.get_or_compute("a", miss) is dummy  # refresh a
    assert cache.get_or_compute("c", lambda: dummy) is dummy  # evicts b
    assert len(cache) == 2
    assert cache.get_or_compute("a", miss) is dummy
    assert cache.get_or_compute("c", miss) is dummy
    assert cache.get_or_compute("b", lambda: "again") == "again"  # evicts a
    assert (cache.stats.hits, cache.stats.misses) == (3, 4)
    cache.clear()
    assert len(cache) == 0
    assert (cache.stats.hits, cache.stats.misses) == (0, 0)


# ---------------------------------------------------------------------------
# Dictionary interning
# ---------------------------------------------------------------------------


def _columnar(schema, rows, semiring=BOOLEAN, name=None):
    return ColumnarFactor(schema, rows, semiring, name)


def test_interning_aligns_shared_dictionaries_and_round_trips():
    f = _columnar(("A", "B"), {(3, 1): True, (5, 2): True, (9, 1): True})
    g = _columnar(("A", "C"), {(5, 7): True, (4, 7): True})
    interned = intern_factors({"F": f, "G": g})
    fi, gi = interned["F"], interned["G"]
    assert fi.dictionary("A") is gi.dictionary("A")
    assert dict(fi.rows) == dict(f.rows)
    assert dict(gi.rows) == dict(g.rows)
    # Unshared variables are left untouched.
    assert gi.dictionary("C") is g.dictionary("C")


def test_interning_superset_keeps_widest_codes_verbatim():
    wide = _columnar(("A",), {(i,): True for i in range(16)})
    narrow = _columnar(("A",), {(3,): True, (7,): True})
    interned = intern_factors({"W": wide, "N": narrow})
    assert interned["W"] is wide  # identity: no re-code for the widest
    assert interned["N"].dictionary("A") is wide.dictionary("A")
    assert dict(interned["N"].rows) == dict(narrow.rows)


def test_interning_mixed_types_falls_back_and_round_trips():
    f = _columnar(("A", "B"), {(("t", 1), 1): True, (4, 2): True})
    g = _columnar(("A",), {(4,): True, ("x",): True})
    interned = intern_factors({"F": f, "G": g})
    assert interned["F"].dictionary("A") is interned["G"].dictionary("A")
    assert dict(interned["F"].rows) == dict(f.rows)
    assert dict(interned["G"].rows) == dict(g.rows)


def test_interning_string_and_float_dictionaries():
    f = _columnar(("A",), {("aa",): True, ("bee",): True})
    g = _columnar(("A",), {("bee",): True, ("c",): True})
    interned = intern_factors({"F": f, "G": g})
    assert interned["F"].dictionary("A") is interned["G"].dictionary("A")
    assert dict(interned["G"].rows) == dict(g.rows)

    x = _columnar(("V",), {(0.5,): True, (1.25,): True})
    y = _columnar(("V",), {(1.25,): True, (2.75,): True})
    interned = intern_factors({"X": x, "Y": y})
    assert dict(interned["X"].rows) == dict(x.rows)
    assert dict(interned["Y"].rows) == dict(y.rows)


# ---------------------------------------------------------------------------
# Fused kernel ≡ join-then-marginalize (hypothesis property tests)
# ---------------------------------------------------------------------------


def _factor_rows(draw, schema, values, max_rows=8, domain=range(4)):
    rows = draw(
        st.dictionaries(
            st.tuples(*[st.sampled_from(list(domain)) for _ in schema]),
            values,
            max_size=max_rows,
        )
    )
    return rows


@st.composite
def fused_case(draw):
    name = draw(st.sampled_from(sorted(SEMIRING_VALUES)))
    semiring = SEMIRINGS[name]
    values = SEMIRING_VALUES[name]
    shapes = draw(
        st.sampled_from(
            [
                (("V", "A"),),
                (("V", "A"), ("V", "B")),
                (("V", "A"), ("V", "B"), ("V", "C")),
                (("V",), ("V",)),
                (("A", "V"), ("V", "B"), ("B", "C")),
            ]
        )
    )
    factors = {}
    for i, schema in enumerate(shapes):
        rows = _factor_rows(draw, schema, values)
        factors[f"F{i}"] = ColumnarFactor(schema, rows, semiring)
    return semiring, factors


@settings(max_examples=120, deadline=None)
@given(fused_case())
def test_fused_kernel_equals_join_then_marginalize(case):
    from repro.faq.operations import marginalize, multi_join

    semiring, factors = case
    interned = intern_factors(factors)
    fused = fused_join_marginalize(list(interned.values()), "V", semiring)
    reference = marginalize(
        multi_join(list(factors.values())), "V", semiring.add
    )
    assert fused is not None
    assert fused == reference
    # Exact value parity, not just semiring-eq: the chosen annotations
    # make every ⊕-fold order exact (the float fold-order edge case).
    assert dict(fused.rows) == dict(reference.rows)


@settings(max_examples=60, deadline=None)
@given(fused_case())
def test_compiled_ve_solver_matches_operator_on_generated_queries(case):
    semiring, factors = case
    schemas = {name: f.schema for name, f in factors.items()}
    h = Hypergraph(schemas)
    domains = {v: tuple(range(4)) for v in h.vertices}
    q = FAQQuery(
        hypergraph=h, factors=dict(factors), domains=domains,
        free_vars=(), semiring=semiring,
    )
    ref = solve_variable_elimination(q)
    out = solve_variable_elimination(q, solver="compiled")
    assert out == ref
    assert dict(out.rows) == dict(ref.rows)


def test_fused_kernel_declines_uninterned_dictionaries():
    f = _columnar(("V", "A"), {(1, 1): True, (2, 1): True})
    g = _columnar(("V", "B"), {(1, 3): True})
    # Dictionaries share values but not identity: the kernel must decline
    # rather than misread codes.
    assert fused_join_marginalize([f, g], "V", BOOLEAN) is None


def test_fused_kernel_int64_overflow_guard():
    big = (2 ** 62) + 1
    f = ColumnarFactor(("V",), {(1,): big}, COUNTING)
    g = ColumnarFactor(("V",), {(1,): 4}, COUNTING)
    interned = intern_factors({"F": f, "G": g})
    assert fused_join_marginalize(list(interned.values()), "V", COUNTING) is None


# ---------------------------------------------------------------------------
# Satellite: float fast path in _encode_column
# ---------------------------------------------------------------------------


def _loop_encode(col):
    """The generic first-appearance encoder (reference for parity)."""
    dictionary, code_map, codes = [], {}, []
    for x in col:
        c = code_map.get(x)
        if c is None:
            c = len(dictionary)
            code_map[x] = c
            dictionary.append(x)
        codes.append(c)
    return codes, dictionary


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-50, max_value=50).map(float),
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_subnormal=False,
            ),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_encode_column_float_fast_path_parity(col):
    if any(x == 0.0 and math.copysign(1.0, x) < 0 for x in col):
        col = [abs(x) if x == 0.0 else x for x in col]
    codes, dictionary = _encode_column(col, len(col))
    assert isinstance(dictionary, Dictionary)
    assert dictionary.array is not None
    decoded = [dictionary[c] for c in codes.tolist()]
    assert decoded == col
    # Same decoded column as the generic loop (different codings allowed).
    loop_codes, loop_dict = _loop_encode(col)
    assert [loop_dict[c] for c in loop_codes] == col
    assert sorted(dictionary) == sorted(loop_dict)


def test_encode_column_rejects_promoted_huge_int_columns():
    # np.asarray promotes ints >= 2**63 to float64; accepting that as the
    # kind-"f" fast path would decode lossily.  Must take the exact loop.
    big = 2 ** 63 + 1
    codes, dictionary = _encode_column([big, 5, 5], 3)
    assert getattr(dictionary, "array", None) is None  # generic loop ran
    assert [dictionary[c] for c in codes.tolist()] == [big, 5, 5]
    from repro.semiring.columnar import dictionary_array

    assert dictionary_array([big, 5]) is None


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, np.float64])
def test_encode_column_reads_an_array_by_its_dtype(dtype):
    # An array's elements are NumPy scalars, so an element-type check
    # rejected every array and the loop stored NumPy scalars.
    from repro.semiring.columnar import dictionary_array

    col = np.array([5, 3, 5, 0], dtype=dtype)
    assert dictionary_array(col) is col
    codes, dictionary = _encode_column(col, len(col))
    assert dictionary.array is not None  # the vectorized path ran
    assert dictionary == sorted(set(col.tolist()))
    assert {type(v) for v in dictionary} == {type(col.tolist()[0])}
    assert [dictionary[c] for c in codes.tolist()] == col.tolist()


def test_encode_column_float_guards_nan_and_negative_zero():
    codes, dictionary = _encode_column([1.0, float("nan"), 2.0], 3)
    assert getattr(dictionary, "array", None) is None  # generic loop ran
    codes, dictionary = _encode_column([-0.0, 1.0], 2)
    assert getattr(dictionary, "array", None) is None
    assert math.copysign(1.0, dictionary[codes.tolist()[0]]) < 0


def test_columnar_factor_with_float_domain_round_trips():
    rows = {(0.5, 1.25): 2.0, (3.75, 1.25): 1.5, (0.5, 8.0): 0.25}
    dense = ColumnarFactor(("X", "Y"), rows, REAL)
    assert dict(dense.rows) == rows
    assert isinstance(dense.dictionary("X"), Dictionary)
    plain = Factor(("X", "Y"), rows, REAL)
    assert dense == plain


# ---------------------------------------------------------------------------
# Satellite: incremental greedy elimination order
# ---------------------------------------------------------------------------


def _reference_greedy_order(query):
    """The seed's O(V²·F) implementation, kept as the oracle."""
    schemas = [set(f.schema) for f in query.factors.values()]
    remaining = set(query.bound_vars)
    order = []
    while remaining:

        def cost(var):
            touching = [s for s in schemas if var in s]
            merged = set()
            for s in touching:
                merged |= s
            return (len(touching), len(merged), str(var))

        var = min(remaining, key=cost)
        order.append(var)
        remaining.discard(var)
        touching = [s for s in schemas if var in s]
        schemas = [s for s in schemas if var not in s]
        if touching:
            merged = set()
            for s in touching:
                merged |= s
            merged.discard(var)
            schemas.append(merged)
    return tuple(order)


@pytest.mark.parametrize("seed", [1, 5, 9, 13, 17])
def test_incremental_greedy_order_matches_reference(seed):
    for build in (
        lambda s: random_acyclic_hypergraph(6, 3, seed=s),
        lambda s: random_tree_query(6, seed=s),
        lambda s: random_d_degenerate_query(7, 2, seed=s),
    ):
        h = build(seed)
        factors, domains = random_instance(
            h, domain_size=4, relation_size=8, seed=seed
        )
        q = bcq(h, factors, domains)
        assert greedy_elimination_order(q) == _reference_greedy_order(q)


def _assert_perfect_order(h):
    """On an acyclic query, every elimination step's joined schema must fit
    inside some original hyperedge (width-1 behaviour: no intermediate
    factor ever exceeds an input relation's schema)."""
    factors = {
        name: Factor.from_tuples(tuple(sorted(h.edge(name), key=str)), ())
        for name in h.edge_names
    }
    q = bcq(h, factors, domains_for(h, 2))
    order = greedy_elimination_order(q)
    assert set(order) == q.bound_vars
    edges = [set(e) for e in h.edge_sets()]
    schemas = [set(f.schema) for f in q.factors.values()]
    for var in order:
        touching = [s for s in schemas if var in s]
        merged = set()
        for s in touching:
            merged |= s
        assert any(
            merged <= edge for edge in edges
        ), f"eliminating {var!r} merges {sorted(merged, key=str)}"
        schemas = [s for s in schemas if var not in s]
        merged.discard(var)
        schemas.append(merged)


def test_greedy_order_is_perfect_on_acyclic_table1_queries():
    _assert_perfect_order(Hypergraph.star(4))  # table1 row 1 (hard-star)
    _assert_perfect_order(Hypergraph.path(4))  # table1 row 2 (hard-path)
    for seed in (1, 2, 3):
        _assert_perfect_order(random_acyclic_hypergraph(5, 3, seed=seed))


# ---------------------------------------------------------------------------
# The solver axis through the protocol stack
# ---------------------------------------------------------------------------


def test_solver_axis_preserves_protocol_metrics():
    h = Hypergraph({"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 0), (2, 0)]),
        "S": Factor.from_tuples(("A", "C"), [(2, 5), (3, 5)]),
        "T": Factor.from_tuples(("A", "D"), [(2, 9)]),
    }
    q = bcq(h, rels, domains_for(h, 10))
    topo = Topology.line(3)
    assignment = {"R": topo.nodes[0], "S": topo.nodes[1], "T": topo.nodes[2]}
    reports = {
        solver: run_distributed_faq(q, topo, assignment, solver=solver)
        for solver in ("operator", "compiled")
    }
    op, comp = reports["operator"], reports["compiled"]
    assert comp.answer == op.answer
    assert comp.rounds == op.rounds
    assert comp.total_bits == op.total_bits
    assert comp.simulation.bits_per_edge == op.simulation.bits_per_edge


def test_planner_solver_axis_matches():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    factors, domains = random_instance(h, domain_size=6, relation_size=12, seed=3)
    q = bcq(h, factors, domains)
    topo = Topology.ring(4)
    results = {}
    for solver in ("operator", "compiled"):
        report = Planner(q, topo, solver=solver).execute()
        assert report.correct
        results[solver] = report
    assert results["operator"].answer == results["compiled"].answer
    assert (
        results["operator"].measured_rounds
        == results["compiled"].measured_rounds
    )
    assert results["compiled"].solver_wall_time >= 0.0
    with pytest.raises(ValueError, match="unknown solver"):
        Planner(q, topo, solver="nope")


def test_scalar_answer_matches_across_solvers():
    h = Hypergraph({"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 0), (2, 0)]),
        "S": Factor.from_tuples(("A", "C"), [(2, 5)]),
        "T": Factor.from_tuples(("A", "D"), [(9, 9)]),
    }
    q = bcq(h, rels, domains_for(h, 10), backend="columnar")
    assert scalar_value(solve_variable_elimination(q, solver="compiled")) is (
        scalar_value(solve_variable_elimination(q))
    )


# ---------------------------------------------------------------------------
# Golden: the compiled solver, pinned call by call
# ---------------------------------------------------------------------------


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "compiled_solver.json")


def _small_query(relations, domains, free_vars, semiring=COUNTING, **extra):
    """A columnar query over ``{name: (schema, rows)}``."""
    h = Hypergraph(
        {name: schema for name, (schema, _rows) in relations.items()},
        vertices=domains,
    )
    factors = {
        name: Factor(schema, rows, semiring, name=name)
        for name, (schema, rows) in relations.items()
    }
    return FAQQuery(
        hypergraph=h, factors=factors, domains=domains, free_vars=free_vars,
        semiring=semiring, backend="columnar", **extra,
    )


#: One query per branch of the compiled solver, built fresh per call.
GOLDEN_CASES = {
    # The fused kernel runs on every elimination step.
    "fused-columnar": lambda: _random_query(COUNTING, 6, backend="columnar"),
    # The same query on the dict backend: every fused step falls back.
    "fallback-dict": lambda: _random_query(COUNTING, 6, backend="dict"),
    # int64-overflowing annotations: the kernel declines.
    "int64-overflow": lambda: _small_query(
        {"F": (("V",), {(1,): 2 ** 62 + 1, (2,): 3}),
         "G": (("V",), {(1,): 4, (2,): 5})},
        {"V": (1, 2)}, (),
    ),
    # A PRODUCT aggregate: the full-domain marginalize, listed order.
    "product-aggregate": lambda: _small_query(
        {"R": (("A", "B"), {(1, 1): 2.0, (1, 2): 3.0, (2, 2): 1.0}),
         "S": (("B", "C"), {(1, 1): 4.0, (2, 1): 5.0, (2, 3): 2.0})},
        {"A": (1, 2), "B": (1, 2), "C": (1, 3)}, ("A",),
        semiring=REAL, aggregates={"C": PRODUCT}, bound_order=("B", "C"),
    ),
    # A custom Aggregate callable: no structural key, nothing cached.
    "custom-aggregate": lambda: _small_query(
        {"R": (("A", "B"), {(1, 1): 2, (2, 1): 3, (2, 2): 7})},
        {"A": (1, 2), "B": (1, 2)}, ("B",),
        aggregates={"A": Aggregate("max", "semiring", combine=max)},
    ),
    # Free variables out of schema order: the final projection.
    "projection": lambda: _small_query(
        {"R": (("A", "B"), {(1, 1): 2, (2, 1): 3, (2, 2): 1}),
         "S": (("B", "C"), {(1, 5): 4, (2, 5): 2, (2, 6): 3})},
        {"A": (1, 2), "B": (1, 2), "C": (5, 6)}, ("C", "A"),
    ),
    # A two-component forest: the final join.
    "forest": lambda: _small_query(
        {"R": (("A", "B"), {(1, 1): 2, (2, 1): 3, (2, 2): 1}),
         "S": (("C", "D"), {(7, 1): 4, (8, 1): 2, (8, 2): 3})},
        {"A": (1, 2), "B": (1, 2), "C": (7, 8), "D": (1, 2)}, ("A", "C"),
    ),
    # A bound variable in no factor: solve() takes the naive solver.
    "dangling": lambda: _small_query(
        {"R": (("A",), {(1,): 2, (2,): 3})},
        {"A": (1, 2), "Z": (1, 2, 3)}, ("A",),
    ),
}


def _golden_call(query, solver, since):
    """One ``solve`` call: answer digest, deterministic counter delta and
    the plan cache's running ``[hits, misses, uncacheable]`` — the last
    read off the counter, counted from the ``since`` snapshot."""
    before = COUNTERS.snapshot()
    answer = solve(query, solver)
    after = COUNTERS.snapshot()
    delta = deterministic_view(counter_delta(before, after))
    uncacheable = counter_delta(since, after).get("plan_cache.uncacheable", 0)
    stats = PLAN_CACHE.stats
    return {
        "digest": answer_digest(answer.schema, answer.rows),
        "counters": delta,
        "plan_cache": [stats.hits, stats.misses, uncacheable],
    }


def golden_record(name):
    """A cold call then a warm call of one case, on each solver."""
    record = {}
    for solver in SOLVERS:
        PLAN_CACHE.clear()
        since = COUNTERS.snapshot()
        query = GOLDEN_CASES[name]()
        record[solver] = [
            _golden_call(query, solver, since) for _call in ("cold", "warm")
        ]
    return record


def _without_naive_plan_lookup(calls):
    """The interpreter that wrote the golden file looked a naive plan up
    in PLAN_CACHE; the naive loop has nothing to cache and looks nothing
    up, so those records lose exactly that lookup."""
    return [
        dict(
            call,
            counters={
                name: count for name, count in call["counters"].items()
                if name != "plan_cache.lookups"
            },
            plan_cache=[0, 0, 0],
        )
        for call in calls
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_compiled_solver_matches_golden(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    if name == "dangling":
        expected["compiled"] = _without_naive_plan_lookup(expected["compiled"])
    assert golden_record(name) == expected
