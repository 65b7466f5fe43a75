"""One interned view per query, read by the compiled consumers only.

``FAQQuery.interned_factors`` re-codes a columnar query's factors so
that every column of one variable shares one dictionary object, once
per query object.  The compiled solver, the compiled engine's star pass
and pricing read it; the operator solver and the generator engine, the
references, read ``query.factors`` untouched.  Phase B of the star pass
probes only columns in one code space and otherwise declines to the
dict scorer, so every way into that fallback is pinned here against the
generator engine.
"""

import pytest

from repro.core.memo import clear_all_memos
from repro.decomposition.ghd import GHD
from repro.faq import FAQQuery, solve
from repro.faq import query as query_module
from repro.faq.variable_elimination import solve_variable_elimination
from repro.hypergraph import Hypergraph
from repro.lab.generate import generate_scenarios
from repro.lab.results import answer_digest
from repro.lab.runner import execute_scenario
from repro.network.topology import Topology
from repro.pipeline import plan_scenario
from repro.protocols import compiler, run_distributed_faq
from repro.semiring import BOOLEAN, COUNTING, REAL, ColumnarFactor, Factor
from repro.semiring.columnar import intern_factors

PRODUCT_PLANE = dict(backend="columnar", engine="compiled", solver="compiled")


def _query(relations, semiring=COUNTING, backend="columnar"):
    """A query over ``{name: (schema, rows)}``; each variable's domain is
    the values its relations list."""
    domains = {}
    for schema, rows in relations.values():
        for i, v in enumerate(schema):
            domains.setdefault(v, set()).update(row[i] for row in rows)
    return FAQQuery(
        hypergraph=Hypergraph(
            {name: schema for name, (schema, _rows) in relations.items()}),
        factors={
            name: Factor(schema, rows, semiring, name)
            for name, (schema, rows) in relations.items()
        },
        domains={v: tuple(sorted(d)) for v, d in domains.items()},
        semiring=semiring,
        backend=backend,
    )


def _columnar_spec():
    return generate_scenarios(777, 3)[1].with_(**PRODUCT_PLANE)


def _one_dictionary_per_variable(factors):
    seen = {}
    for f in factors.values():
        for v, d in zip(f.schema, f.dictionaries):
            assert seen.setdefault(v, d) is d, v
    return seen


# ---------------------------------------------------------------------------
# The view
# ---------------------------------------------------------------------------


def test_the_view_is_made_once_per_query(monkeypatch):
    """Compiled solves, a compiled run and its pricing all read one view
    of the planner's query, made by the first of them; every column of a
    variable in it shares one dictionary object."""
    calls = []

    def counting(factors):
        calls.append(factors)
        return intern_factors(factors)

    monkeypatch.setattr(query_module, "intern_factors", counting)
    clear_all_memos()
    spec = _columnar_spec()
    planner, plan = plan_scenario(spec)
    query = planner.query
    view = query.interned_factors()
    assert query.interned_factors() is view
    assert len(calls) == 1
    _one_dictionary_per_variable(view)
    assert any(view[name] is not f for name, f in query.factors.items())

    states = []
    real = compiler.star_contributions

    def recording(plan, query, star, state, node):
        states.append(state)
        return real(plan, query, star, state, node)

    monkeypatch.setattr(compiler, "star_contributions", recording)
    solve_variable_elimination(query, solver="compiled")
    solve_variable_elimination(query, solver="compiled")
    compiler.execute_plan(plan, query, "compiled")
    compiler.payload_counts(plan, query)
    # Only the residual query each run builds for its output player is
    # interned besides: a query of its own, once.
    assert [f for f in calls if f is query.factors] == calls[:1]
    assert states
    for state in states:
        for name, f in view.items():
            if name not in {star.center_edge for star in plan.stars}:
                assert state[name] is f
    clear_all_memos()


def test_the_references_read_the_factors_untouched(monkeypatch):
    """The operator solver and the generator engine never ask for the
    view, and a compiled run leaves ``query.factors`` as it was."""
    clear_all_memos()
    spec = _columnar_spec()
    planner, plan = plan_scenario(spec)
    query = planner.query
    before = dict(query.factors)
    compiler.execute_plan(plan, query, "compiled")
    assert all(query.factors[name] is f for name, f in before.items())

    def forbidden(self):
        raise AssertionError("a reference read the interned view")

    monkeypatch.setattr(FAQQuery, "interned_factors", forbidden)
    reference = solve_variable_elimination(query)
    report = run_distributed_faq(
        query, planner.topology, planner.assignment, engine="generator",
        plan=plan)
    assert report.answer == reference
    clear_all_memos()


def test_the_view_follows_the_factors():
    """Replacing a factor makes a fresh view, as ``with_backend`` makes a
    fresh conversion; a dict or mixed query's view is its factors."""
    relations = {
        "R": (("a", "b"), {(1, 2): 3, (2, 2): 1}),
        "S": (("b", "c"), {(2, 5): 2, (4, 5): 7}),
    }
    query = _query(relations)
    view = query.interned_factors()
    assert view["R"].dictionary("b") is view["S"].dictionary("b")
    query.factors["S"] = ColumnarFactor(
        ("b", "c"), {(2, 5): 4}, COUNTING, "S")
    fresh = query.interned_factors()
    assert fresh is not view and fresh["S"].values.tolist() == [4]
    assert fresh["R"].dictionary("b") is fresh["S"].dictionary("b")

    dict_query = _query(relations, backend="dict")
    assert dict_query.interned_factors() is dict_query.factors
    # A factor beyond int64 stays dict under "columnar": nothing pools.
    mixed = _query(dict(relations, T=(("c",), {(5,): 2 ** 64})))
    assert not isinstance(mixed.factors["T"], ColumnarFactor)
    assert mixed.interned_factors() is mixed.factors


def test_phase_b_probes_every_product_plane_pair_in_one_code_space(monkeypatch):
    """Every column a product-plane Phase B probes is already in the
    center's code space: on ``generate_scenarios(777, 100)`` no
    contribution is re-coded and no probe declines (the per-probe
    aligner re-coded 306 of these 651 pairs)."""
    pairs = {"all": 0, "shared": 0, "declined": 0}
    real = compiler._vector_scores

    def spy(semiring, center, contributions):
        for cf in contributions:
            for v in cf.schema:
                if v in center.schema:
                    pairs["all"] += 1
                    pairs["shared"] += isinstance(cf, ColumnarFactor) and (
                        cf.dictionary(v) is center.dictionary(v))
        scores = real(semiring, center, contributions)
        pairs["declined"] += scores is None
        return scores

    monkeypatch.setattr(compiler, "_vector_scores", spy)
    clear_all_memos()
    for spec in generate_scenarios(777, 100):
        assert execute_scenario(spec.with_(**PRODUCT_PLANE)).correct
    clear_all_memos()
    assert pairs == {"all": 651, "shared": 651, "declined": 0}


# ---------------------------------------------------------------------------
# Phase B's declines, against the generator engine
# ---------------------------------------------------------------------------


def _assert_engines_agree(query, topology, assignment, **kwargs):
    gen = run_distributed_faq(
        query, topology, assignment, engine="generator", **kwargs)
    comp = run_distributed_faq(
        query, topology, assignment, engine="compiled", solver="compiled",
        **kwargs)
    digest = answer_digest(gen.answer.schema, gen.answer.rows)
    assert answer_digest(comp.answer.schema, comp.answer.rows) == digest
    assert (comp.rounds, comp.total_bits) == (gen.rounds, gen.total_bits)
    assert comp.simulation.bits_per_edge == gen.simulation.bits_per_edge
    assert gen.answer == solve(query)


def _spy(monkeypatch, name):
    """Record what ``compiler.<name>`` returns."""
    seen = []
    real = getattr(compiler, name)

    def spy(*args):
        out = real(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(compiler, name, spy)
    return seen


def test_phase_b_declines_a_product_that_may_overflow_int64(monkeypatch):
    # The center and a leaf held by one player: their 2**40 annotations
    # multiply past int64, so the slots are scored in Python ints.
    query = _query({
        "R": (("a", "b"), {(1, 1): 2 ** 40, (2, 1): 3, (3, 2): 2 ** 40}),
        "S": (("b",), {(1,): 2 ** 40 + 1, (2,): 5}),
        "T": (("a", "c"), {(1, 7): 2, (3, 7): 1}),
    })
    overflows = _spy(monkeypatch, "product_overflows")
    probes = _spy(monkeypatch, "probe")
    _assert_engines_agree(
        query, Topology.line(3), {"R": "P0", "S": "P0", "T": "P2"})
    assert True in overflows and all(hit is not None for hit in probes)


def test_phase_b_declines_a_composite_key_past_the_radix_cap(monkeypatch):
    # Five center columns whose interned dictionaries hold 2**13 values
    # each (the unary leaves list them all): 2**65 composite codes.
    width = 2 ** 13
    center = tuple(f"v{i}" for i in range(5))
    relations = {
        "R": (center, {(0,) * 5: 2, (1, 2, 3, 4, 5): 3, (7,) * 5: 1}),
    }
    for i, v in enumerate(center):
        relations[f"U{i}"] = ((v,), {(x,): 1 + x % 3 for x in range(width)})
    query = _query(relations)
    probes = _spy(monkeypatch, "probe")
    assignment = {name: f"P{i % 3}" for i, name in enumerate(sorted(relations))}
    _assert_engines_agree(query, Topology.line(3), assignment)
    assert None in probes


def test_phase_b_declines_dictionaries_that_are_not_shared(monkeypatch):
    # One factor beyond int64 stays dict, so nothing is interned: the
    # columnar center and its columnar leaf keep their own dictionaries,
    # and code 0 of ``b`` is 1 in the center's but 0 in the leaf's.
    query = _query({
        "R": (("a", "b"), {(1, 1): 2, (2, 3): 3, (3, 3): 1}),
        "S": (("b", "c"), {(0, 4): 5, (3, 4): 2, (3, 5): 6}),
        "T": (("a", "d"), {(1, 9): 2 ** 64, (2, 9): 1}),
    })
    assert query.interned_factors() is query.factors
    declined = []
    real = compiler._vector_scores

    def spy(semiring, center, contributions):
        scores = real(semiring, center, contributions)
        if scores is None and all(
                isinstance(cf, ColumnarFactor) for cf in contributions):
            declined.append([cf.schema for cf in contributions])
        return scores

    monkeypatch.setattr(compiler, "_vector_scores", spy)
    _assert_engines_agree(
        query, Topology.line(3), {"R": "P0", "S": "P1", "T": "P2"})
    # The leaf's message is columnar but in its own code space.
    assert declined == [[("b",)]]


def test_phase_b_probes_huge_integer_domains_exactly():
    # Values from 2**63 have a uint64 view and small ones an int64 view:
    # interning them together must not concatenate to float64, which
    # merges 2**63 and 2**63 + 1.
    big = 2 ** 63
    query = _query({
        "R": (("a", "b"), {(big, 1): 2, (big + 1, 2): 3, (big + 2, 1): 5}),
        "S": (("b",), {(1,): 4, (2,): 7}),
        "T": (("a", "c"), {(1, 0): 2, (big + 1, 0): 3, (big, 1): 1}),
    })
    view = query.interned_factors()
    assert view["R"].dictionary("a") is view["T"].dictionary("a")
    assert dict(view["T"].rows) == dict(query.factors["T"].rows)
    _assert_engines_agree(
        query, Topology.line(3), {"R": "P0", "S": "P1", "T": "P2"})


@pytest.mark.parametrize("semiring", [COUNTING, BOOLEAN, REAL])
def test_phase_b_projects_a_contribution_wider_than_the_center(
        monkeypatch, semiring):
    # A GHD whose root bag is wider than its relation: the leaf's message
    # keeps ``c``, which the center does not list, so Phase B ⊕-projects
    # it away before probing — unless float ``+`` would make the fold
    # order matter, and the dict scorer projects instead.
    one = semiring.one
    query = _query({
        "R": (("a", "b"), {(1, 1): one, (2, 2): one, (3, 4): one}),
        "S": (("b", "c"), {(1, 5): one, (1, 6): one, (2, 6): one, (9, 6): one}),
    }, semiring=semiring)
    ghd = GHD(query.hypergraph)
    ghd.add_node("root", {"a", "b", "c"}, {"R"})
    ghd.add_node("leaf", {"b", "c"}, {"S"}, parent="root")
    ghd.validate()
    projected = []
    real = compiler.dict_project

    def spy(factor, variables):
        projected.append(tuple(variables))
        return real(factor, variables)

    monkeypatch.setattr(compiler, "dict_project", spy)
    scores = _spy(monkeypatch, "_vector_scores")
    _assert_engines_agree(
        query, Topology.line(2), {"R": "P0", "S": "P0"}, ghd=ghd)
    if semiring is REAL:
        assert projected == [] and scores == [None]
    else:
        assert projected == [("b",)] and scores[0] is not None
