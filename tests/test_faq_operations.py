"""Tests for the factor algebra (join, semijoin, project, marginalize)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faq import (
    aggregate_absent_variable,
    join,
    marginalize,
    multi_join,
    project,
    scalar,
    scalar_value,
    semijoin,
)
from repro.semiring import BOOLEAN, COUNTING, MIN_PLUS, REAL, Factor


def R(tuples, schema=("A", "B")):
    return Factor.from_tuples(schema, tuples, BOOLEAN)


def test_join_boolean_natural_join():
    r = R([(1, 10), (2, 20)])
    s = Factor.from_tuples(("B", "C"), [(10, "x"), (10, "y"), (30, "z")])
    j = join(r, s)
    assert j.schema == ("A", "B", "C")
    assert set(j.tuples()) == {(1, 10, "x"), (1, 10, "y")}


def test_join_disjoint_schemas_is_cross_product():
    r = Factor.from_tuples(("A",), [(1,), (2,)])
    s = Factor.from_tuples(("B",), [(7,), (8,)])
    j = join(r, s)
    assert len(j) == 4


def test_join_counting_multiplies():
    r = Factor(("A",), {(1,): 2, (2,): 3}, COUNTING)
    s = Factor(("A",), {(1,): 5, (2,): 7}, COUNTING)
    j = join(r, s)
    assert j((1,)) == 10
    assert j((2,)) == 21


def test_join_semiring_mismatch_raises():
    r = Factor(("A",), {(1,): 2}, COUNTING)
    s = Factor(("A",), {(1,): True}, BOOLEAN)
    with pytest.raises(ValueError):
        join(r, s)


def test_join_schema_order_stable():
    r = Factor.from_tuples(("B", "A"), [(1, 2)])
    s = Factor.from_tuples(("A", "C"), [(2, 3)])
    j = join(r, s)
    assert j.schema == ("B", "A", "C")
    assert (1, 2, 3) in j


def test_multi_join_empty_raises():
    with pytest.raises(ValueError):
        multi_join([])


def test_semijoin_filters_left():
    r = R([(1, 10), (2, 20), (3, 30)])
    s = Factor.from_tuples(("B",), [(10,), (30,)])
    out = semijoin(r, s)
    assert set(out.tuples()) == {(1, 10), (3, 30)}
    assert out.schema == r.schema


def test_semijoin_no_shared_vars():
    r = R([(1, 10)])
    s_nonempty = Factor.from_tuples(("C",), [(5,)])
    s_empty = Factor.from_tuples(("C",), [])
    assert len(semijoin(r, s_nonempty)) == 1
    assert len(semijoin(r, s_empty)) == 0


def test_semijoin_keeps_annotations():
    r = Factor(("A",), {(1,): 5, (2,): 7}, COUNTING)
    s = Factor(("A", "B"), {(1, 9): 3}, COUNTING)
    out = semijoin(r, s)
    assert out((1,)) == 5
    assert (2,) not in out


def test_project_boolean_dedups():
    r = R([(1, 10), (1, 20), (2, 10)])
    p = project(r, ("A",))
    assert set(p.tuples()) == {(1,), (2,)}


def test_project_counting_adds():
    r = Factor(("A", "B"), {(1, 10): 2, (1, 20): 3, (2, 10): 4}, COUNTING)
    p = project(r, ("A",))
    assert p((1,)) == 5
    assert p((2,)) == 4


def test_project_reorders():
    r = R([(1, 10)])
    p = project(r, ("B", "A"))
    assert p.schema == ("B", "A")
    assert (10, 1) in p


def test_marginalize_sum():
    f = Factor(("A", "B"), {(1, 10): 2.0, (1, 20): 3.0, (2, 10): 4.0}, REAL)
    m = marginalize(f, "B")
    assert m.schema == ("A",)
    assert m((1,)) == 5.0
    assert m((2,)) == 4.0


def test_marginalize_min_plus_takes_min():
    f = Factor(("A", "B"), {(1, 10): 2.0, (1, 20): 3.0}, MIN_PLUS)
    m = marginalize(f, "B")
    assert m((1,)) == 2.0


def test_marginalize_full_domain_product():
    # Product over Dom(B) = {10, 20}: group A=1 covers both, A=2 misses 20.
    f = Factor(("A", "B"), {(1, 10): 2.0, (1, 20): 3.0, (2, 10): 4.0}, REAL)
    m = marginalize(f, "B", combine=REAL.mul, full_domain=(10, 20))
    assert m((1,)) == 6.0
    assert (2,) not in m  # 4.0 * 0 = 0, dropped from the listing


def test_marginalize_missing_var_raises():
    f = Factor(("A",), {(1,): 1.0}, REAL)
    with pytest.raises(KeyError):
        marginalize(f, "Z")


def test_aggregate_absent_variable_scales():
    f = Factor(("A",), {(1,): 2.0}, REAL)
    out = aggregate_absent_variable(f, REAL.add, 5)
    assert out((1,)) == 10.0
    out2 = aggregate_absent_variable(f, REAL.mul, 3)
    assert out2((1,)) == 8.0


def test_aggregate_absent_variable_bad_domain():
    f = Factor(("A",), {(1,): 2.0}, REAL)
    with pytest.raises(ValueError):
        aggregate_absent_variable(f, REAL.add, 0)


def test_scalar_roundtrip():
    s = scalar(COUNTING, 42)
    assert scalar_value(s) == 42
    z = scalar(COUNTING, 0)
    assert scalar_value(z) == 0
    with pytest.raises(ValueError):
        scalar_value(Factor(("A",), {(1,): 1}, COUNTING))


# ---------------------------------------------------------------------------
# Algebraic property tests
# ---------------------------------------------------------------------------

small_relation = st.sets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12
)


@settings(max_examples=50)
@given(small_relation, small_relation)
def test_join_commutative_boolean(t1, t2):
    r = Factor.from_tuples(("A", "B"), t1)
    s = Factor.from_tuples(("B", "C"), [(b, a) for a, b in t2])
    lhs = join(r, s)
    rhs = join(s, r)
    # Same tuples up to column order.
    lhs_set = {lhs.project_tuple(t, ("A", "B", "C")) for t in lhs.tuples()}
    rhs_set = {rhs.project_tuple(t, ("A", "B", "C")) for t in rhs.tuples()}
    assert lhs_set == rhs_set


@settings(max_examples=50)
@given(small_relation, small_relation)
def test_semijoin_equals_filtered_join_projection(t1, t2):
    """R ⋉ S == pi_{ar(R)}(R ⋈ S) for Boolean relations (Definition 3.5)."""
    r = Factor.from_tuples(("A", "B"), t1)
    s = Factor.from_tuples(("B", "C"), [(b, a) for a, b in t2])
    via_def = project(join(r, s), ("A", "B"))
    direct = semijoin(r, s)
    assert set(via_def.tuples()) == set(direct.tuples())


@settings(max_examples=50)
@given(small_relation)
def test_join_with_projection_is_identity_boolean(t1):
    r = Factor.from_tuples(("A", "B"), t1)
    p = project(r, ("A",))
    assert set(semijoin(r, p).tuples()) == set(r.tuples())


@settings(max_examples=30)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, 5),
        max_size=12,
    )
)
def test_marginalize_then_total_equals_grand_total(rows):
    """Summing out B then A equals the grand total (associativity)."""
    f = Factor(("A", "B"), rows, COUNTING)
    total_direct = sum(rows.values())
    m = marginalize(marginalize(f, "B"), "A")
    assert scalar_value(m) == total_direct
