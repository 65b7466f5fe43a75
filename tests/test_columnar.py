"""Backend parity: the columnar data plane must agree with the dict one.

Property-style randomized checks that ``join`` / ``semijoin`` / ``project``
/ ``marginalize`` produce equal :class:`Factor`s on both backends for every
supported semiring, plus the edge cases (empty factors, disjoint schemas,
zero-arity scalars), the graceful fallbacks (GF(2), custom aggregates,
full-domain folds), and the ``backend=`` knob on queries, solvers and the
planner.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Planner
from repro.faq import (
    PRODUCT,
    Aggregate,
    aggregate_absent_variable,
    bcq,
    join,
    marginal_query,
    marginalize,
    multi_join,
    project,
    semijoin,
    solve_message_passing,
    solve_naive,
    solve_variable_elimination,
)
from repro.faq.yannakakis import solve_bcq_yannakakis
from repro.hypergraph import Hypergraph
from repro.network import Topology
from repro.obs.counters import COUNTERS, counter_delta
from repro.semiring import (
    BACKEND_COLUMNAR,
    BACKEND_DICT,
    BOOLEAN,
    COUNTING,
    GF2,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    REAL,
    ColumnarFactor,
    Factor,
    Semiring,
    backend_of,
    supports_columnar,
    to_backend,
)
from repro.semiring.columnar import INT64_MAX, group_reduce
from repro.workloads import random_instance

VECTOR_SEMIRINGS = (BOOLEAN, COUNTING, REAL, MIN_PLUS, MAX_PLUS, MAX_TIMES)


def random_factor(rng, schema, semiring, size, domain=10, name=None):
    """A random factor with semiring-appropriate annotations."""
    rows = {}
    for _ in range(size):
        key = tuple(rng.randrange(domain) for _ in schema)
        if semiring is BOOLEAN:
            rows[key] = True
        elif semiring is COUNTING:
            rows[key] = rng.randint(1, 9)
        else:
            rows[key] = rng.uniform(0.1, 5.0)
    return Factor(schema, rows, semiring, name)


def both(factor):
    """(dict, columnar) views of the same factor."""
    return factor, ColumnarFactor.from_factor(factor)


# ---------------------------------------------------------------------------
# Encoding round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
def test_roundtrip_preserves_rows(semiring):
    rng = random.Random(11)
    f = random_factor(rng, ("A", "B", "C"), semiring, 120)
    col = ColumnarFactor.from_factor(f)
    assert col == f
    assert col.to_dict_factor() == f
    assert len(col) == len(f)
    assert col.backend == BACKEND_COLUMNAR and f.backend == BACKEND_DICT
    for v in f.schema:
        assert col.active_domain(v) == f.active_domain(v)
    # Decoded values are canonical Python scalars, not NumPy scalars.
    for value in col.rows.values():
        assert type(value) in (bool, int, float)


def test_roundtrip_arbitrary_hashable_domains():
    rows = {("x", (1, 2)): 2, ("y", (3,)): 3, (None, (1, 2)): 5}
    f = Factor(("A", "B"), rows, COUNTING)
    col = ColumnarFactor.from_factor(f)
    assert col == f
    assert dict(col.rows) == rows


MIXED_VALUES = st.one_of(
    st.integers(-(2 ** 40), 2 ** 40),
    st.text(max_size=6),
    st.booleans(),
)


@st.composite
def mixed_rows(draw):
    arity = draw(st.integers(1, 4))
    schema = tuple(f"v{i}" for i in range(arity))
    return schema, draw(st.lists(st.tuples(*[MIXED_VALUES] * arity), max_size=40))


@given(mixed_rows())
@settings(max_examples=120, deadline=None)
def test_roundtrip_mixed_int_str_bool_columns(schema_rows):
    schema, rows = schema_rows
    f = Factor(schema, {row: 2 for row in rows}, COUNTING)
    col = ColumnarFactor.from_factor(f)
    assert len(col) == len(f)
    assert list(col.rows.items()) == list(f.rows.items())


def test_strings_ending_in_nul_round_trip():
    # NumPy's fixed-width strings strip trailing NULs; such a column
    # must take the generic encoder (hypothesis found ``'\x00' -> ''``).
    rows = [("\x00",), ("a\x00",), ("a",), ("",)]
    col = ColumnarFactor.from_factor(
        Factor(("v0",), {row: True for row in rows}, BOOLEAN))
    assert list(col.tuples()) == rows


def test_columnar_rejects_unsupported_semiring():
    f = Factor(("A",), {(1,): 1}, GF2)
    with pytest.raises(ValueError):
        ColumnarFactor.from_factor(f)


def test_to_backend_gf2_falls_back_gracefully():
    f = Factor(("A",), {(1,): 1}, GF2)
    assert to_backend(f, BACKEND_COLUMNAR) is f
    assert backend_of(to_backend(f, BACKEND_COLUMNAR)) == BACKEND_DICT


def test_custom_semiring_reusing_builtin_name_stays_dict():
    fake_real = Semiring(
        name="real", zero=0.0, one=1.0,
        add=lambda a, b: a + b, mul=lambda a, b: a * b,
    )
    assert not supports_columnar(fake_real)
    f = Factor(("A",), {(1,): 2.0}, fake_real)
    assert to_backend(f, BACKEND_COLUMNAR) is f


# ---------------------------------------------------------------------------
# Operator parity (randomized, all supported semirings)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(4))
def test_join_parity(semiring, seed):
    rng = random.Random(seed)
    left, cleft = both(random_factor(rng, ("A", "B"), semiring, 150, domain=8))
    right, cright = both(random_factor(rng, ("B", "C"), semiring, 150, domain=8))
    expected = join(left, right)
    got = join(cleft, cright)
    assert isinstance(got, ColumnarFactor)
    assert got == expected


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(4))
def test_project_and_marginalize_parity(semiring, seed):
    rng = random.Random(100 + seed)
    f, cf = both(random_factor(rng, ("A", "B", "C"), semiring, 200, domain=6))
    assert project(cf, ("C", "A")) == project(f, ("C", "A"))
    assert marginalize(cf, "B") == marginalize(f, "B")
    assert project(cf, ()) == project(f, ())


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(4))
def test_semijoin_parity(semiring, seed):
    rng = random.Random(200 + seed)
    left, cleft = both(random_factor(rng, ("A", "B"), semiring, 120, domain=7))
    right, cright = both(random_factor(rng, ("B", "C"), semiring, 40, domain=7))
    got = semijoin(cleft, cright)
    assert isinstance(got, ColumnarFactor)
    assert got == semijoin(left, right)


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
def test_multi_join_chain_parity(semiring):
    rng = random.Random(42)
    dicts, cols = [], []
    for schema in (("A", "B"), ("B", "C"), ("C", "D")):
        d, c = both(random_factor(rng, schema, semiring, 60, domain=5))
        dicts.append(d)
        cols.append(c)
    assert multi_join(cols) == multi_join(dicts)


# ---------------------------------------------------------------------------
# Edge cases: empty factors, disjoint schemas, scalars
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
def test_empty_factor_edge_cases(semiring):
    rng = random.Random(7)
    full, cfull = both(random_factor(rng, ("A", "B"), semiring, 50))
    empty, cempty = both(Factor(("B", "C"), (), semiring))
    assert join(cfull, cempty) == join(full, empty)
    assert len(join(cfull, cempty)) == 0
    assert join(cempty, cfull) == join(empty, full)
    assert semijoin(cfull, cempty) == semijoin(full, empty)
    assert marginalize(cempty, "B") == marginalize(empty, "B")
    assert project(cempty, ("C",)) == project(empty, ("C",))


@pytest.mark.parametrize("semiring", VECTOR_SEMIRINGS, ids=lambda s: s.name)
def test_disjoint_schema_cross_product(semiring):
    rng = random.Random(8)
    left, cleft = both(random_factor(rng, ("A",), semiring, 15, domain=30))
    right, cright = both(random_factor(rng, ("B",), semiring, 12, domain=30))
    got = join(cleft, cright)
    assert got == join(left, right)
    assert len(got) == len(left) * len(right)
    # Disjoint-schema semijoin: empty right empties left, else left survives.
    assert semijoin(cleft, cright) == semijoin(left, right)
    empty = ColumnarFactor(("B",), (), semiring)
    assert len(semijoin(cleft, empty)) == 0


def test_scalar_factors():
    s, cs = both(Factor((), {(): 3}, COUNTING))
    a, ca = both(Factor(("A",), {(1,): 2, (2,): 5}, COUNTING))
    assert join(cs, ca) == join(s, a)
    assert marginalize(ca, "A") == marginalize(a, "A")
    zero, czero = both(Factor((), {}, COUNTING))
    assert join(czero, ca) == join(zero, a)


def test_boolean_semijoin_mixed_backends_fall_back():
    # One dict operand forces the generic path; result is still correct.
    rng = random.Random(9)
    left, cleft = both(random_factor(rng, ("A", "B"), BOOLEAN, 40, domain=5))
    right = random_factor(rng, ("B",), BOOLEAN, 10, domain=5)
    assert semijoin(cleft, right) == semijoin(left, right)
    assert join(cleft, right) == join(left, right)


# ---------------------------------------------------------------------------
# Fallbacks that must stay on the dict path
# ---------------------------------------------------------------------------


def test_custom_combine_falls_back_to_dict_path():
    rng = random.Random(10)
    f, cf = both(random_factor(rng, ("A", "B"), COUNTING, 80, domain=6))
    combine = lambda a, b: a + b + 1  # noqa: E731 - not the semiring add
    expected = marginalize(f, "B", combine=combine)
    got = marginalize(cf, "B", combine=combine)
    assert got == expected


def test_full_domain_fold_falls_back_to_dict_path():
    rng = random.Random(12)
    f, cf = both(random_factor(rng, ("A", "B"), COUNTING, 60, domain=5))
    dom = tuple(range(5))
    expected = marginalize(f, "B", combine=COUNTING.mul, full_domain=dom)
    got = marginalize(cf, "B", combine=COUNTING.mul, full_domain=dom)
    assert got == expected


def test_counting_join_overflow_falls_back_to_exact_dict_path():
    # 2**33 * 2**33 = 2**66 wraps to exactly 0 in int64 — the kernel must
    # detect the risk and fall back to the dict path's unbounded ints.
    big = 2 ** 33
    l_dict, l_col = both(Factor(("A",), {(1,): big}, COUNTING))
    r_dict, r_col = both(Factor(("A",), {(1,): big}, COUNTING))
    expected = join(l_dict, r_dict)
    got = join(l_col, r_col)
    assert got == expected
    assert got((1,)) == big * big


def test_counting_reduce_overflow_falls_back_to_exact_dict_path():
    near_max = 2 ** 62
    rows = {(1, i): near_max for i in range(4)}
    f, cf = both(Factor(("A", "B"), rows, COUNTING))
    expected = marginalize(f, "B")
    got = marginalize(cf, "B")
    assert got == expected
    assert got((1,)) == 4 * near_max
    assert project(cf, ("A",)) == project(f, ("A",))


@pytest.mark.parametrize(
    "rows, runs",
    [
        # Four rows of 2**61 overflow only if they share a group; in two
        # groups of two each sum is 2**62, which fits.
        ({(a, b): 2 ** 61 for a in (1, 2) for b in range(2)}, True),
        # The larger group sums to 2**63: still the exact dict path.
        ({(1, 0): 2 ** 62, (1, 1): 2 ** 62, (2, 0): 1, (3, 0): -5}, False),
    ],
)
def test_counting_reduce_bounds_overflow_by_the_largest_group(rows, runs):
    f, cf = both(Factor(("A", "B"), rows, COUNTING))
    # Every row in one group at the max magnitude would overflow.
    assert max(map(abs, rows.values())) > INT64_MAX // len(rows)
    kernel = group_reduce(
        ("A",), [cf.codes[0]], [cf.dictionaries[0]], cf.values, len(cf),
        COUNTING,
    )
    assert (kernel is not None) == runs
    before = COUNTERS.snapshot()
    got = marginalize(cf, "B")
    delta = counter_delta(before, COUNTERS.snapshot())
    assert got == marginalize(f, "B")
    assert (delta.get("kernel.dict_fallback", 0) == 0) == runs
    if runs:
        assert kernel == got


def test_to_backend_huge_counts_stay_dict():
    f = Factor(("A",), {(1,): 2 ** 70}, COUNTING)
    assert to_backend(f, BACKEND_COLUMNAR) is f


def test_aggregate_absent_variable_folds():
    f = Factor(("A",), {(1,): 3}, COUNTING)
    # Semiring add: 3 summed |Dom| times.
    assert aggregate_absent_variable(f, COUNTING.add, 7)((1,)) == 21
    # Product aggregate: 3 ** |Dom| via the double-and-add fold.
    assert aggregate_absent_variable(f, COUNTING.mul, 5)((1,)) == 3 ** 5
    # Idempotent add collapses regardless of domain size.
    b = Factor(("A",), {(1,): True}, BOOLEAN)
    assert aggregate_absent_variable(b, BOOLEAN.add, 10 ** 9)((1,)) is True


def test_aggregate_absent_variable_preserves_backend():
    rng = random.Random(13)
    f, cf = both(random_factor(rng, ("A",), COUNTING, 20))
    expected = aggregate_absent_variable(f, COUNTING.add, 3)
    got = aggregate_absent_variable(cf, COUNTING.add, 3)
    assert got == expected
    assert backend_of(got) == BACKEND_COLUMNAR


# ---------------------------------------------------------------------------
# Factor surface on the columnar subclass
# ---------------------------------------------------------------------------


def test_columnar_surface_rename_copy_with_semiring():
    rng = random.Random(14)
    f, cf = both(random_factor(rng, ("A", "B"), COUNTING, 30))
    assert cf.rename({"A": "X"}) == f.rename({"A": "X"})
    assert isinstance(cf.rename({"A": "X"}), ColumnarFactor)
    assert cf.copy(name="c") == f.copy(name="c")
    lifted = cf.with_semiring(BOOLEAN)
    assert lifted == f.with_semiring(BOOLEAN)
    assert isinstance(lifted, ColumnarFactor)
    to_gf2 = cf.with_semiring(GF2, convert=lambda v: v % 2)
    assert backend_of(to_gf2) == BACKEND_DICT
    assert to_gf2 == f.with_semiring(GF2, convert=lambda v: v % 2)


def test_columnar_rejects_duplicate_schema_like_dict():
    f, cf = both(Factor(("A", "B"), {(1, 2): 4}, COUNTING))
    with pytest.raises(ValueError):
        f.rename({"B": "A"})
    with pytest.raises(ValueError):
        cf.rename({"B": "A"})
    with pytest.raises(ValueError):
        project(cf, ("A", "A"))
    with pytest.raises(ValueError):
        ColumnarFactor(("A", "A"), (), COUNTING)


def test_columnar_rows_view_is_read_only():
    # Arrays are the authoritative storage; the decoded rows view must not
    # accept mutations that would silently desync from them.
    cf = ColumnarFactor(("A",), {(1,): 2}, COUNTING)
    with pytest.raises(TypeError):
        cf.rows[(9,)] = 5
    assert dict(cf.rows) == {(1,): 2}


def test_columnar_dictionaries_shared_not_copied():
    rng = random.Random(15)
    cf = ColumnarFactor.from_factor(random_factor(rng, ("A", "B"), COUNTING, 30))
    derived = cf.copy()
    assert derived.dictionaries[0] is cf.dictionaries[0]
    renamed = cf.rename({"A": "X"})
    assert renamed.dictionaries[1] is cf.dictionaries[1]


def test_columnar_contains_call_and_size_bits():
    f, cf = both(Factor(("A", "B"), {(1, 2): 4, (3, 4): 5}, COUNTING))
    assert (1, 2) in cf and (9, 9) not in cf
    assert cf((3, 4)) == 5 and cf((9, 9)) == 0
    assert cf.size_bits(16) == f.size_bits(16)


# ---------------------------------------------------------------------------
# Hypothesis: join/marginalize parity over arbitrary listings
# ---------------------------------------------------------------------------

pair_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40
)


@settings(max_examples=60, deadline=None)
@given(left=pair_lists, right=pair_lists)
def test_hypothesis_boolean_join_marginalize_parity(left, right):
    l_dict = Factor.from_tuples(("A", "B"), left, BOOLEAN)
    r_dict = Factor.from_tuples(("B", "C"), right, BOOLEAN)
    l_col, r_col = ColumnarFactor.from_factor(l_dict), ColumnarFactor.from_factor(r_dict)
    expected = join(l_dict, r_dict)
    got = join(l_col, r_col)
    assert got == expected
    assert marginalize(got, "B") == marginalize(expected, "B")


@settings(max_examples=60, deadline=None)
@given(
    rows=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(1, 50),
        max_size=30,
    )
)
def test_hypothesis_counting_project_parity(rows):
    f = Factor(("A", "B"), rows, COUNTING)
    cf = ColumnarFactor.from_factor(f)
    assert project(cf, ("A",)) == project(f, ("A",))
    assert project(cf, ("B", "A")) == project(f, ("B", "A"))


# ---------------------------------------------------------------------------
# The backend knob: queries, solvers, planner
# ---------------------------------------------------------------------------


def _chain_query(semiring=COUNTING, seed=3):
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "D")})
    factors, domains = random_instance(
        h, domain_size=12, relation_size=60, seed=seed, semiring=semiring
    )
    return marginal_query(h, factors, domains, ("A",), semiring)


def test_query_backend_knob_converts_factors():
    q = _chain_query()
    qc = q.with_backend(BACKEND_COLUMNAR)
    assert all(backend_of(f) == BACKEND_COLUMNAR for f in qc.factors.values())
    qd = qc.with_backend(BACKEND_DICT)
    assert all(backend_of(f) == BACKEND_DICT for f in qd.factors.values())
    assert qc.with_backend(BACKEND_COLUMNAR) is qc


def test_query_backend_knob_rejects_unknown_name():
    q = _chain_query()
    with pytest.raises(ValueError):
        q.with_backend("arrow")


@pytest.mark.parametrize("semiring", (BOOLEAN, COUNTING, REAL, MIN_PLUS))
def test_solver_parity_across_backends(semiring):
    q = _chain_query(semiring=semiring)
    expected = solve_variable_elimination(q, backend=BACKEND_DICT)
    assert solve_variable_elimination(q, backend=BACKEND_COLUMNAR) == expected
    assert solve_naive(q, backend=BACKEND_COLUMNAR) == expected
    assert solve_message_passing(q, backend=BACKEND_COLUMNAR) == expected


def test_solver_backend_parity_with_product_aggregate():
    h = Hypergraph({"R": ("A", "B")})
    factors, domains = random_instance(
        h, domain_size=4, relation_size=10, seed=1, semiring=COUNTING
    )
    q = marginal_query(h, factors, domains, ("A",), COUNTING)
    q.aggregates = {"B": PRODUCT}
    expected = solve_naive(q, backend=BACKEND_DICT)
    assert solve_naive(q, backend=BACKEND_COLUMNAR) == expected


def test_yannakakis_backend_parity():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    factors, domains = random_instance(h, domain_size=6, relation_size=20, seed=2)
    q = bcq(h, factors, domains)
    assert solve_bcq_yannakakis(q, backend=BACKEND_COLUMNAR) == solve_bcq_yannakakis(
        q, backend=BACKEND_DICT
    )


def test_planner_executes_with_columnar_backend():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    factors, domains = random_instance(h, domain_size=8, relation_size=25, seed=4)
    q = bcq(h, factors, domains, backend=BACKEND_COLUMNAR)
    report = Planner(q, Topology.line(3), backend=BACKEND_COLUMNAR).execute()
    assert report.correct
