"""Tests for the factor algebra (join, semijoin, project, marginalize)."""

from typing import Any, Callable, Dict, Sequence, Tuple

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
from repro.faq.operations import _columnar_operands, _merged_schema, join_marginalize
from repro.obs.counters import COUNTERS, counter_delta
from repro.semiring import BOOLEAN, COUNTING, MAX_TIMES, MIN_PLUS, REAL, Factor, to_backend
from repro.semiring.columnar import (
    columnar_join,
    columnar_marginalize,
    columnar_project,
    columnar_semijoin,
)


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


# ---------------------------------------------------------------------------
# The dict kernels against the ones they replaced
# ---------------------------------------------------------------------------
# The dict kernels before C-level row keys, zero-drop at emit and the fused
# elimination step, verbatim but for their names: the oracles of row order
# (``rows``' insertion order, which fixes a float ⊕'s fold order) and of
# the kernel counters every deterministic lab record carries.

Tuple_ = Tuple[Any, ...]


def old_join(left: Factor, right: Factor, name: str | None = None) -> Factor:
    if left.semiring.name != right.semiring.name:
        raise ValueError(
            f"cannot join factors over semirings "
            f"{left.semiring.name!r} and {right.semiring.name!r}"
        )
    semiring = left.semiring
    if _columnar_operands(left, right):
        out = columnar_join(left, right, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    shared = tuple(v for v in left.schema if v in right.schema)
    out_schema = _merged_schema(left.schema, right.schema)

    # Hash join: index the smaller side on the shared variables.
    if len(right) < len(left):
        build, probe = right, left
    else:
        build, probe = left, right
    build_key_idx = [build.column_index(v) for v in shared]
    probe_key_idx = [probe.column_index(v) for v in shared]
    index: Dict[Tuple_, list] = {}
    for row, value in build:
        key = tuple(row[i] for i in build_key_idx)
        index.setdefault(key, []).append((row, value))

    # Positions to assemble the output tuple from (probe row, build row).
    out_rows: Dict[Tuple_, Any] = {}
    # Output order must follow out_schema: compute per-variable source.
    sources = []
    for v in out_schema:
        if v in probe.schema:
            sources.append(("p", probe.column_index(v)))
        else:
            sources.append(("b", build.column_index(v)))
    mul = semiring.mul
    for prow, pval in probe:
        key = tuple(prow[i] for i in probe_key_idx)
        for brow, bval in index.get(key, ()):
            out = tuple(
                prow[i] if side == "p" else brow[i] for side, i in sources
            )
            val = mul(pval, bval)
            if out in out_rows:
                out_rows[out] = semiring.add(out_rows[out], val)
            else:
                out_rows[out] = val
    return Factor(out_schema, out_rows, semiring, name)


def old_multi_join(factors, name: str | None = None) -> Factor:
    factors = list(factors)
    if not factors:
        raise ValueError("multi_join requires at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = old_join(acc, f)
    if name is not None:
        acc = acc.copy(name=name)
    return acc


def old_semijoin(left: Factor, right: Factor, name: str | None = None) -> Factor:
    if _columnar_operands(left, right):
        out = columnar_semijoin(left, right, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    shared = tuple(v for v in left.schema if v in right.schema)
    if not shared:
        # Degenerate: R1 ⋈ pi_∅(R2) — empty right empties left.
        if len(right) == 0:
            return Factor(left.schema, (), left.semiring, name)
        return left.copy(name=name)
    right_keys = {right.project_tuple(row, shared) for row in right.tuples()}
    left_idx = [left.column_index(v) for v in shared]
    rows = {
        row: value
        for row, value in left
        if tuple(row[i] for i in left_idx) in right_keys
    }
    return Factor(left.schema, rows, left.semiring, name)


def old_project(factor: Factor, variables: Sequence[str], name: str | None = None) -> Factor:
    variables = tuple(variables)
    if _columnar_operands(factor):
        out = columnar_project(factor, variables, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    idx = [factor.column_index(v) for v in variables]
    semiring = factor.semiring
    rows: Dict[Tuple_, Any] = {}
    for row, value in factor:
        key = tuple(row[i] for i in idx)
        if key in rows:
            rows[key] = semiring.add(rows[key], value)
        else:
            rows[key] = value
    return Factor(variables, rows, semiring, name)


def old_marginalize(
    factor: Factor,
    variable: str,
    combine: Callable[[Any, Any], Any] | None = None,
    full_domain: Sequence[Any] | None = None,
    name: str | None = None,
) -> Factor:
    semiring = factor.semiring
    if (
        full_domain is None
        and (combine is None or combine is semiring.add)
        and _columnar_operands(factor)
    ):
        out = columnar_marginalize(factor, variable, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    combine = combine or semiring.add
    var_idx = factor.column_index(variable)
    out_schema = tuple(v for v in factor.schema if v != variable)

    if full_domain is None:
        rows: Dict[Tuple_, Any] = {}
        for row, value in factor:
            key = row[:var_idx] + row[var_idx + 1:]
            if key in rows:
                rows[key] = combine(rows[key], value)
            else:
                rows[key] = value
        return Factor(out_schema, rows, semiring, name)

    # Full-domain fold: group rows, then fold over every domain value.
    groups: Dict[Tuple_, Dict[Any, Any]] = {}
    for row, value in factor:
        key = row[:var_idx] + row[var_idx + 1:]
        groups.setdefault(key, {})[row[var_idx]] = value
    rows = {}
    zero = semiring.zero
    domain = list(full_domain)
    for key, present in groups.items():
        it = iter(domain)
        acc = present.get(next(it), zero)
        for dom_value in it:
            acc = combine(acc, present.get(dom_value, zero))
        rows[key] = acc
    return Factor(out_schema, rows, semiring, name)


def _counted(fn, *args):
    """``fn(*args)`` and the counters it moved."""
    before = COUNTERS.snapshot()
    out = fn(*args)
    return out, counter_delta(before, COUNTERS.snapshot())


def assert_same_kernel(new, old, *args):
    """Same schema, backend, rows in the same insertion order (values
    compared exactly) and the same counter deltas."""
    got, got_counts = _counted(new, *args)
    want, want_counts = _counted(old, *args)
    assert got.schema == want.schema
    assert type(got) is type(want)
    assert list(got.rows.items()) == list(want.rows.items())
    assert got_counts == want_counts


#: Annotations per semiring.  ``real-exact`` sums and multiplies small
#: integers, so every fold order agrees; ``real-tiny`` has products that
#: ``is_zero``'s ``isclose`` reads as zero (1e-7 * 1e-7) and sums whose
#: last bit depends on the fold order; ``max-times`` has both.
VALUES = {
    "boolean": (BOOLEAN, st.just(True)),
    "counting": (COUNTING, st.integers(1, 4)),
    "real-exact": (REAL, st.sampled_from([1.0, 2.0, 3.0])),
    "real-tiny": (REAL, st.sampled_from([1e-7, 3e-7, 0.1, 0.3, 1.0])),
    "min-plus": (MIN_PLUS, st.sampled_from([0.0, 1.0, 2.5])),
    "max-times": (MAX_TIMES, st.sampled_from([1e-7, 0.5, 0.25, 1.0])),
}
VARIABLES = ("A", "B", "C", "D")


@st.composite
def operands(draw, count):
    """``count`` factors over one semiring: random schemas (a nullary one
    included), rows over a 3-value domain, each on either backend."""
    semiring, values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    factors = []
    for _ in range(count):
        schema = tuple(draw(st.permutations(VARIABLES))[: draw(st.integers(0, 3))])
        keys = st.tuples(*[st.integers(0, 2)] * len(schema))
        rows = draw(st.dictionaries(keys, values, max_size=9))
        factor = Factor(schema, rows, semiring)
        factors.append(to_backend(factor, draw(st.sampled_from(["dict", "columnar"]))))
    return factors


@settings(max_examples=150, deadline=None)
@given(operands(2))
def test_join_and_semijoin_match_the_old_kernels(pair):
    left, right = pair
    assert_same_kernel(join, old_join, left, right)
    assert_same_kernel(semijoin, old_semijoin, left, right)


@settings(max_examples=150, deadline=None)
@given(operands(1), st.data())
def test_project_and_marginalize_match_the_old_kernels(single, data):
    (factor,) = single
    semiring = factor.semiring
    order = data.draw(st.permutations(factor.schema))
    variables = tuple(order[: data.draw(st.integers(0, len(order)))])
    assert_same_kernel(project, old_project, factor, variables)
    if factor.schema:
        variable = data.draw(st.sampled_from(factor.schema))
        combine = data.draw(st.sampled_from([None, semiring.add, max]))
        assert_same_kernel(marginalize, old_marginalize, factor, variable, combine)
        assert_same_kernel(
            marginalize, old_marginalize, factor, variable, semiring.mul, (0, 1, 2)
        )


def old_elimination_step(parts, variable, combine):
    return old_marginalize(old_multi_join(parts), variable, combine)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(operands), st.data())
def test_join_marginalize_matches_marginalize_of_multi_join(parts, data):
    variables = sorted({v for p in parts for v in p.schema})
    if not variables:
        return
    variable = data.draw(st.sampled_from(variables))
    combine = data.draw(st.sampled_from([parts[0].semiring.add, max]))
    assert_same_kernel(
        join_marginalize, old_elimination_step, parts, variable, combine
    )


def _counting(schema, rows, backend="dict"):
    return to_backend(Factor(schema, rows, COUNTING), backend)


@pytest.mark.parametrize(
    "parts, variable",
    [
        # No shared variables: the last join is a cross product.
        ([_counting(("A",), {(1,): 2, (2,): 3}),
          _counting(("B",), {(7,): 5, (8,): 1})], "A"),
        # An empty operand empties the step.
        ([_counting(("A", "B"), {(1, 2): 2}), _counting(("B",), {})], "B"),
        ([_counting(("A", "B"), {}), _counting(("B",), {(2,): 4})], "A"),
        # A one-factor elimination is a plain marginalize.
        ([_counting(("A", "B"), {(1, 2): 2, (1, 3): 4})], "B"),
        # Three parts: the first join is materialized, the last one fused.
        ([_counting(("A", "B"), {(1, 2): 2, (2, 2): 3}),
          _counting(("B", "C"), {(2, 5): 1, (2, 6): 7}),
          _counting(("C", "A"), {(5, 1): 3, (6, 2): 2})], "C"),
        # 1e-7 * 1e-7 is zero to ``is_zero``: it must not enter the fold
        # (0.1 + 1e-14 != 0.1), nor open its group ahead of (1,).
        ([Factor(("A", "B"), {(2, 0): 1e-7, (1, 1): 0.1, (2, 2): 0.3}, REAL),
          Factor(("B",), {(0,): 1e-7, (1,): 1.0, (2,): 1.0}, REAL)], "B"),
        ([Factor(("A", "B"), {(1, 0): 1e-7, (1, 1): 0.1}, REAL),
          Factor(("B",), {(0,): 1e-7, (1,): 1.0}, REAL)], "B"),
    ],
)
def test_join_marginalize_edge_cases(parts, variable):
    assert_same_kernel(
        join_marginalize, old_elimination_step, parts, variable,
        parts[0].semiring.add,
    )


def test_columnar_operands_whose_product_could_overflow_take_the_dict_step():
    # Annotations near 2**40 make every columnar ⊗ a possible int64
    # overflow, so the join falls back and the fused dict step runs on
    # columnar operands, with exact Python-int arithmetic.
    big = 2 ** 40
    left = _counting(("A", "B"), {(1, 2): big, (2, 2): big + 1}, "columnar")
    right = _counting(("B", "C"), {(2, 5): big, (2, 6): 3}, "columnar")
    args = ([left, right], "B", COUNTING.add)
    assert_same_kernel(join_marginalize, old_elimination_step, *args)
    before = COUNTERS.snapshot()
    out = join_marginalize(*args)
    assert counter_delta(before, COUNTERS.snapshot()) == {"kernel.dict_fallback": 2}
    assert out.rows[(1, 5)] == big * big
    assert_same_kernel(join, old_join, left, right)
