"""Cross-solver consistency tests for the FAQ engine.

The naive solver is definitionally correct; every other solver must agree
with it on BCQs, counting joins, PGM-style marginals and mixed-operator
general FAQ instances.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faq import (
    PRODUCT,
    SUM,
    Aggregate,
    FAQQuery,
    bcq,
    marginal_query,
    natural_join_query,
    scalar_value,
    solve_message_passing,
    solve_naive,
    solve_variable_elimination,
)
from repro.faq.yannakakis import solve_bcq_yannakakis
from repro.hypergraph import Hypergraph
from repro.semiring import BOOLEAN, COUNTING, MAX_TIMES, REAL, Factor
from repro.workloads import domains_for, random_instance


def triangle_query(tuples_r, tuples_s, tuples_t, domain=range(5)):
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), tuples_r),
        "S": Factor.from_tuples(("B", "C"), tuples_s),
        "T": Factor.from_tuples(("A", "C"), tuples_t),
    }
    return bcq(h, rels, {v: tuple(domain) for v in "ABC"})


def test_bcq_triangle_true():
    q = triangle_query([(1, 2)], [(2, 3)], [(1, 3)])
    assert scalar_value(solve_naive(q)) is True
    assert scalar_value(solve_variable_elimination(q)) is True


def test_bcq_triangle_false():
    q = triangle_query([(1, 2)], [(2, 3)], [(2, 3)])
    assert scalar_value(solve_naive(q)) is False
    assert scalar_value(solve_variable_elimination(q)) is False


def test_star_bcq_matches_intersection_semantics():
    """Example 2.2: BCQ of the star H1 is 1 iff the A-projections intersect."""
    h = Hypergraph({"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 0), (2, 0)]),
        "S": Factor.from_tuples(("A", "C"), [(2, 5), (3, 5)]),
        "T": Factor.from_tuples(("A", "D"), [(2, 9)]),
    }
    q = bcq(h, rels, domains_for(h, 10))
    assert scalar_value(solve_naive(q)) is True
    assert solve_bcq_yannakakis(q) is True
    # Remove the common A=2 and the answer flips.
    rels["T"] = Factor.from_tuples(("A", "D"), [(9, 9)])
    q2 = bcq(h, rels, domains_for(h, 10))
    assert scalar_value(solve_naive(q2)) is False
    assert solve_bcq_yannakakis(q2) is False
    # An empty relation decides it outright (the early exit).
    rels["T"] = Factor.from_tuples(("A", "D"), ())
    assert solve_bcq_yannakakis(bcq(h, rels, domains_for(h, 10))) is False


def test_counting_join_size():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 1), (2, 1)], COUNTING),
        "S": Factor.from_tuples(("B", "C"), [(1, 5), (1, 6)], COUNTING),
    }
    q = FAQQuery(h, rels, domains_for(h, 8), free_vars=(), semiring=COUNTING)
    # Join has 2 * 2 = 4 tuples.
    assert scalar_value(solve_naive(q)) == 4
    assert scalar_value(solve_variable_elimination(q)) == 4
    assert scalar_value(solve_message_passing(q)) == 4


def test_message_passing_reaches_a_root_whatever_its_id():
    # A GHD traversal used to treat a falsy root id ("") as "no root", so
    # the solve never reached its root: an ``assert`` under ``python``,
    # an AttributeError on ``None`` under ``python -O``.  Every traversal
    # now starts at any root id but ``None``.
    from repro.decomposition import GHD

    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 1), (2, 1)], COUNTING),
        "S": Factor.from_tuples(("B", "C"), [(1, 5), (1, 6)], COUNTING),
    }
    q = FAQQuery(h, rels, domains_for(h, 8), free_vars=(), semiring=COUNTING)
    tree = GHD(h)
    tree.add_node("", {"A", "B"}, {"R"})
    tree.add_node("s", {"B", "C"}, {"S"}, parent="")
    assert [node.node_id for node in tree.postorder()] == ["s", ""]
    assert [node.node_id for node in tree.preorder()] == ["", "s"]
    assert tree.depth() == 1
    assert scalar_value(solve_message_passing(q, ghd=tree)) == 4


def test_pgm_chain_marginal():
    """Sum-product on a 3-variable chain: phi(A) = sum_B sum_C f(A,B) g(B,C)."""
    h = Hypergraph({"f": ("A", "B"), "g": ("B", "C")})
    f = Factor(("A", "B"), {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.9}, REAL)
    g = Factor(("B", "C"), {(0, 0): 0.3, (1, 0): 0.4, (1, 1): 0.6}, REAL)
    q = marginal_query(
        h, {"f": f, "g": g}, domains_for(h, 2), free_vars=("A",), semiring=REAL
    )
    expected_a0 = 0.5 * 0.3 + 0.5 * (0.4 + 0.6)
    expected_a1 = 0.9 * 0.3
    for solver in (solve_naive, solve_variable_elimination, solve_message_passing):
        out = solver(q)
        assert math.isclose(out((0,)), expected_a0)
        assert math.isclose(out((1,)), expected_a1)


def test_viterbi_max_times():
    h = Hypergraph({"f": ("A", "B"), "g": ("B", "C")})
    f = Factor(("A", "B"), {(0, 0): 0.5, (0, 1): 0.2}, MAX_TIMES)
    g = Factor(("B", "C"), {(0, 0): 0.1, (1, 0): 0.9}, MAX_TIMES)
    q = marginal_query(
        h, {"f": f, "g": g}, domains_for(h, 2), free_vars=("A",),
        semiring=MAX_TIMES,
    )
    out = solve_variable_elimination(q)
    assert math.isclose(out((0,)), max(0.5 * 0.1, 0.2 * 0.9))


def test_natural_join_query_returns_all_tuples():
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    rels = {
        "R": Factor.from_tuples(("A", "B"), [(1, 2)]),
        "S": Factor.from_tuples(("B", "C"), [(2, 3), (2, 4)]),
    }
    q = natural_join_query(h, rels, domains_for(h, 6))
    out = solve_naive(q)
    assert len(out) == 2
    assert out.schema == tuple(sorted("ABC"))


def test_product_aggregate_full_domain_semantics():
    """phi = prod_B f(B): zero unless f covers all of Dom(B)."""
    h = Hypergraph({"f": ("B",)})
    f_full = Factor(("B",), {(0,): 2.0, (1,): 3.0}, REAL)
    f_partial = Factor(("B",), {(0,): 2.0}, REAL)
    for f, expected in ((f_full, 6.0), (f_partial, 0.0)):
        q = FAQQuery(
            h,
            {"f": f},
            {"B": (0, 1)},
            free_vars=(),
            semiring=REAL,
            aggregates={"B": PRODUCT},
        )
        assert math.isclose(scalar_value(solve_naive(q)), expected)
        assert math.isclose(
            scalar_value(solve_variable_elimination(q)), expected
        )


def test_mixed_aggregates_order_respected():
    """max_B sum_C f(B,C) != sum_C max_B f(B,C) in general; solvers must
    apply the listed right-to-left order."""
    h = Hypergraph({"f": ("B", "C")})
    f = Factor(
        ("B", "C"), {(0, 0): 1.0, (0, 1): 5.0, (1, 0): 4.0, (1, 1): 0.5}, REAL
    )
    maximum = Aggregate("max", "semiring", combine=max)
    q = FAQQuery(
        h,
        {"f": f},
        {"B": (0, 1), "C": (0, 1)},
        free_vars=(),
        semiring=REAL,
        aggregates={"B": maximum, "C": SUM},
        bound_order=("B", "C"),  # phi = max_B sum_C f(B, C)
    )
    expected = max(1.0 + 5.0, 4.0 + 0.5)
    assert math.isclose(scalar_value(solve_naive(q)), expected)
    assert math.isclose(scalar_value(solve_variable_elimination(q)), expected)
    assert math.isclose(scalar_value(solve_message_passing(q)), expected)
    # The swapped order gives a different value, evidencing non-commutation.
    q_swapped = FAQQuery(
        h,
        {"f": f},
        {"B": (0, 1), "C": (0, 1)},
        free_vars=(),
        semiring=REAL,
        aggregates={"B": maximum, "C": SUM},
        bound_order=("C", "B"),  # phi = sum_C max_B f(B, C)
    )
    swapped = max(1.0, 4.0) + max(5.0, 0.5)
    assert math.isclose(scalar_value(solve_naive(q_swapped)), swapped)
    assert not math.isclose(expected, swapped)


def test_bound_var_in_no_factor_counts_domain():
    """A dangling bound variable multiplies by its domain size (counting)."""
    h = Hypergraph({"R": ("A",)}, vertices=["Z"])
    q = FAQQuery(
        h,
        {"R": Factor(("A",), {(1,): 1, (2,): 1}, COUNTING)},
        {"A": (1, 2, 3), "Z": (0, 1, 2, 3)},
        free_vars=(),
        semiring=COUNTING,
    )
    assert scalar_value(solve_naive(q)) == 2 * 4
    with pytest.raises(ValueError):
        solve_variable_elimination(q)


def test_validation_errors():
    h = Hypergraph({"R": ("A", "B")})
    good = Factor.from_tuples(("A", "B"), [(0, 0)])
    with pytest.raises(ValueError):  # missing factor
        FAQQuery(h, {}, {"A": (0,), "B": (0,)})
    with pytest.raises(ValueError):  # schema mismatch
        FAQQuery(h, {"R": Factor.from_tuples(("A", "C"), [(0, 0)])},
                 {"A": (0,), "B": (0,), "C": (0,)})
    with pytest.raises(ValueError):  # unknown free var
        FAQQuery(h, {"R": good}, {"A": (0,), "B": (0,)}, free_vars=("Z",))
    with pytest.raises(ValueError):  # value outside domain
        FAQQuery(h, {"R": Factor.from_tuples(("A", "B"), [(9, 0)])},
                 {"A": (0,), "B": (0,)})
    with pytest.raises(ValueError):  # aggregate on free var
        FAQQuery(h, {"R": good}, {"A": (0,), "B": (0,)},
                 free_vars=("A",), aggregates={"A": SUM})
    with pytest.raises(ValueError):  # wrong bound order
        FAQQuery(h, {"R": good}, {"A": (0,), "B": (0,)},
                 bound_order=("A",))
    with pytest.raises(ValueError):  # factor over wrong semiring
        FAQQuery(h, {"R": good}, {"A": (0,), "B": (0,)}, semiring=COUNTING)


def test_faq_ss_detection():
    h = Hypergraph({"R": ("A", "B")})
    good = Factor.from_tuples(("A", "B"), [(0, 0)])
    q = FAQQuery(h, {"R": good}, {"A": (0,), "B": (0,)})
    assert q.is_faq_ss()
    q2 = FAQQuery(h, {"R": good}, {"A": (0,), "B": (0,)},
                  aggregates={"A": PRODUCT})
    assert not q2.is_faq_ss()


def test_bits_per_tuple():
    h = Hypergraph({"R": ("A", "B")})
    good = Factor.from_tuples(("A", "B"), [(0, 0)])
    q = FAQQuery(h, {"R": good}, {"A": tuple(range(16)), "B": (0,)})
    assert q.bits_per_tuple() == 2 * 4  # r=2, log2(16)=4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 4))
def test_solvers_agree_on_random_acyclic_counting(seed, num_edges, dsize):
    """Property: all solvers agree with naive on random acyclic instances."""
    from repro.workloads import random_acyclic_hypergraph

    h = random_acyclic_hypergraph(num_edges, arity=3, seed=seed)
    factors, domains = random_instance(
        h, domain_size=dsize, relation_size=6, seed=seed, semiring=COUNTING
    )
    q = FAQQuery(h, factors, domains, free_vars=(), semiring=COUNTING)
    expected = scalar_value(solve_naive(q))
    assert scalar_value(solve_variable_elimination(q)) == expected
    assert scalar_value(solve_message_passing(q)) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_yannakakis_agrees_on_random_trees(seed):
    from repro.workloads import random_tree_query

    h = random_tree_query(5, seed=seed)
    factors, domains = random_instance(
        h, domain_size=3, relation_size=4, seed=seed
    )
    q = bcq(h, factors, domains)
    assert solve_bcq_yannakakis(q) == scalar_value(solve_naive(q))
