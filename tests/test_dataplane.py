"""Convert once, check once: the shared data plane of a scenario.

The relations of a scenario identity are built columnar and
domain-checked when the identity is first materialized, and every later
``Planner(...)`` of that identity — the lab's axis planes, a serve
registration, a warm call — shares the converted query read-only.  All
of it is counted, never timed:

* the columnar plane encodes and decodes no input relation, and the dict
  plane decodes each once per identity;
* a warm ``execute_scenario`` encodes nothing and scans no input
  relation; ``clear_all_memos()`` alone makes the next call cold again,
  and a suite run (which makes that call) does the same work every time;
* the conversion fires no counter, so the order in which an identity's
  planes run cannot move any record;
* ``FAQQuery.with_backend`` never hands out a stale conversion, and
  ``Planner.execute`` leaves the shared query as it found it;
* the columnar domain check fails exactly as the dict one does.
"""

import json
import operator
import random

import numpy as np
import pytest

from repro.core.memo import clear_all_memos, memo_stats
from repro.core.planner import Planner
from repro.faq import FAQQuery
from repro.hypergraph import Hypergraph
from repro.lab import ScenarioSpec, SuiteSpec, execute_scenario
from repro.lab.runner import run_suite
from repro.lab.suites import get_suite, with_axes
from repro.obs.counters import COUNTERS, counter_delta
from repro.pipeline import identity_key, materialize_scenario
from repro.semiring import COUNTING, Factor
from repro.semiring.columnar import ColumnarFactor, Dictionary

_FAST_PLANE = dict(backend="columnar", engine="compiled", solver="compiled")


def hard_star_spec(**overrides):
    """``stream-line-xl`` in miniature."""
    base = dict(
        family="dataplane-hard-star", query="hard-star",
        query_params={"arms": 4}, topology="line", topology_params={"n": 4},
        n=48, assignment="worst-case", seed=7, **_FAST_PLANE,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def acyclic_spec(**overrides):
    """``wide-expander`` in miniature."""
    base = dict(
        family="dataplane-acyclic", query="acyclic",
        query_params={"edges": 5, "arity": 3}, topology="expander",
        topology_params={"n": 12, "degree": 4, "seed": 1},
        n=40, domain_size=8, semiring="counting", seed=2, **_FAST_PLANE,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


PIPELINE_SPECS = pytest.mark.parametrize(
    "make_spec", [hard_star_spec, acyclic_spec], ids=["hard-star", "acyclic"]
)


def make_cold():
    clear_all_memos()


def input_relations(spec):
    """The identity's relations as every plane sees them: the built
    factors and their shared conversion."""
    query = materialize_scenario(spec)[0].query
    return list(query.factors.values()) + list(
        query.with_backend(spec.backend).factors.values()
    )


@pytest.fixture
def data_plane_work(monkeypatch):
    """Record every dictionary encode, every used-value scan and
    every row decode of a columnar factor, by the factor it ran on."""
    work = {"encodes": [], "domain_scans": [], "decodes": []}
    encode = ColumnarFactor.from_factor.__func__

    def counting_encode(cls, factor):
        if not isinstance(factor, ColumnarFactor):
            work["encodes"].append(factor)
        return encode(cls, factor)

    monkeypatch.setattr(
        ColumnarFactor, "from_factor", classmethod(counting_encode)
    )
    for cls in (Factor, ColumnarFactor):
        scan = cls.used_values

        def counting_scan(self, var, _scan=scan):
            work["domain_scans"].append(self)
            return _scan(self, var)

        monkeypatch.setattr(cls, "used_values", counting_scan)
    decode = ColumnarFactor.rows.fget

    def counting_decode(self):
        if self._rows_cache is None:
            work["decodes"].append(self)
        return decode(self)

    monkeypatch.setattr(ColumnarFactor, "rows", property(counting_decode))
    return work


def work_on(work, relations):
    """``(encodes, domain scans, row decodes)`` that ran on one of
    ``relations``."""
    ids = {id(f) for f in relations}
    return tuple(
        sum(id(f) in ids for f in work[kind])
        for kind in ("encodes", "domain_scans", "decodes")
    )


# ---------------------------------------------------------------------------
# Cold pays once, warm pays nothing, clear_all_memos() makes cold
# ---------------------------------------------------------------------------


@PIPELINE_SPECS
def test_warm_call_encodes_and_scans_no_input_relation(make_spec, data_plane_work):
    spec = make_spec()
    make_cold()
    cold = execute_scenario(spec)
    relations = input_relations(spec)
    k = len(relations) // 2
    variables = sum(len(f.schema) for f in relations[:k])
    # Relations are born columnar: the columnar plane encodes none and
    # decodes none, and each is domain-checked once, by the built query
    # (its conversion keeps every row, so it is not checked again).
    assert all(isinstance(f, ColumnarFactor) for f in relations)
    assert all(map(operator.is_, relations[:k], relations[k:]))
    assert work_on(data_plane_work, relations) == (0, variables, 0)
    assert not data_plane_work["encodes"]

    for work in data_plane_work.values():
        work.clear()
    warm = execute_scenario(spec)
    # (The domain scans a warm call still makes are of what the protocol
    # computed: the residual query the output player solves.)
    assert work_on(data_plane_work, relations) == (0, 0, 0)
    assert not data_plane_work["encodes"]
    assert warm.deterministic_record() == cold.deterministic_record()

    # Cold stays cold: no knob, no second cache to clear.
    clear_all_memos()
    again = execute_scenario(spec)
    rebuilt = input_relations(spec)
    assert not {id(f) for f in rebuilt} & {id(f) for f in relations}
    assert work_on(data_plane_work, rebuilt) == (0, variables, 0)
    assert again.deterministic_record() == cold.deterministic_record()


@PIPELINE_SPECS
def test_dict_plane_decodes_each_relation_once_per_identity(
    make_spec, data_plane_work
):
    spec = make_spec(backend="dict")
    make_cold()
    cold = execute_scenario(spec)
    built = list(materialize_scenario(spec)[0].query.factors.values())
    variables = sum(len(f.schema) for f in built)
    # The dict plane decodes every relation once and checks nothing
    # again; its factors are the decoded ones.
    assert work_on(data_plane_work, built) == (0, variables, len(built))
    decoded = input_relations(spec)[len(built):]
    assert all(type(f) is Factor for f in decoded)
    assert [list(f.rows.items()) for f in decoded] == [
        list(f.rows.items()) for f in built
    ]

    # Later planes of the identity, dict or columnar, decode nothing.
    for plane in (spec, spec.with_(backend="columnar")):
        for work in data_plane_work.values():
            work.clear()
        result = execute_scenario(plane)
        assert work_on(data_plane_work, built) == (0, 0, 0)
        assert result.answer_digest == cold.answer_digest


def test_clearing_the_memos_clears_the_identity_key_cache():
    # ``identity_key`` caches in a ``functools.lru_cache``, not an
    # ``LRUMemo``; clearing the memos must reach it all the same.
    execute_scenario(get_suite("fuzz-smoke").scenarios[0])
    assert identity_key.cache_info().currsize > 0
    clear_all_memos()
    assert identity_key.cache_info().currsize == 0


def test_every_suite_run_starts_cold_and_hot_equals_cold():
    # ``run_suite`` clears every memo, the order cache among them, so a
    # second run in one process does exactly the first run's work.
    suite = get_suite("fuzz-smoke")
    run_suite(suite)
    first = memo_stats()
    run = run_suite(suite)
    assert memo_stats() == first
    orders = first["faq.plan_cache"]
    assert orders["misses"] > 0 and orders["hits"] > 0

    # Re-executed with every memo and the order cache warm, each spec
    # writes the record its cold run wrote, byte for byte.
    for result in run.results:
        hot = execute_scenario(result.spec).deterministic_record()
        assert json.dumps(hot) == json.dumps(result.deterministic_record())
    warm = memo_stats()["faq.plan_cache"]
    assert warm["misses"] == orders["misses"]
    assert warm["hits"] > orders["hits"]


# ---------------------------------------------------------------------------
# Plane order cannot show
# ---------------------------------------------------------------------------


@PIPELINE_SPECS
def test_planner_construction_fires_no_counter(make_spec):
    spec = make_spec()
    make_cold()
    built, topology, assignment = materialize_scenario(spec)
    before = COUNTERS.snapshot()
    Planner(
        built.query, topology, assignment=assignment,
        backend=spec.backend, engine=spec.engine, solver=spec.solver,
    )
    assert counter_delta(before, COUNTERS.snapshot()) == {}


@PIPELINE_SPECS
def test_shuffled_plane_order_leaves_every_record_byte_identical(make_spec):
    planes = list(
        with_axes(SuiteSpec("planes", (make_spec(),)), "planes", "").scenarios
    )
    assert len(planes) == 8

    def records(order):
        make_cold()
        return {
            spec.content_hash(): json.dumps(
                execute_scenario(spec).deterministic_record(), sort_keys=True
            )
            for spec in order
        }

    reference = records(planes)
    for seed in (1, 2, 3):
        shuffled = list(planes)
        random.Random(seed).shuffle(shuffled)
        assert records(shuffled) == reference
    assert records(list(reversed(planes))) == reference


# ---------------------------------------------------------------------------
# The shared conversion is never stale and never written to
# ---------------------------------------------------------------------------


def _small_query(**overrides):
    fields = dict(
        hypergraph=Hypergraph({"R": ("A", "B"), "S": ("B", "C")}),
        factors={
            "R": Factor(("A", "B"), {(0, 1): 2, (1, 1): 3}, COUNTING, "R"),
            "S": Factor(("B", "C"), {(1, 0): 5, (1, 2): 7}, COUNTING, "S"),
        },
        domains={"A": (0, 1, 2), "B": (0, 1, 2), "C": (0, 1, 2)},
        semiring=COUNTING,
    )
    fields.update(overrides)
    return FAQQuery(**fields)


def test_with_backend_converts_once_per_backend():
    query = _small_query()
    columnar = query.with_backend("columnar")
    assert columnar.backend == "columnar"
    assert all(isinstance(f, ColumnarFactor) for f in columnar.factors.values())
    assert query.with_backend("columnar") is columnar
    assert query.with_backend(None) is query
    assert columnar.with_backend("columnar") is columnar
    as_dict = query.with_backend("dict")
    assert query.with_backend("dict") is as_dict
    assert as_dict is not columnar and as_dict.factors == columnar.factors
    # A dataclasses.replace copy starts with nothing kept.
    assert columnar.with_backend("dict") is not as_dict


def test_changing_factors_after_with_backend_yields_a_fresh_conversion():
    query = _small_query()
    first = query.with_backend("columnar")

    replaced = Factor(("A", "B"), {(2, 2): 11}, COUNTING, "R")
    query.factors["R"] = replaced
    second = query.with_backend("columnar")
    assert second is not first
    assert second.factors["R"] == replaced
    assert first.factors["R"] != replaced  # the old conversion is intact
    assert query.with_backend("columnar") is second

    # A whole new mapping with equal content is still a change of objects.
    query.factors = {n: f.copy() for n, f in query.factors.items()}
    third = query.with_backend("columnar")
    assert third is not second and third.factors == second.factors

    # Removing a relation re-validates: the conversion fails as a fresh
    # construction would, it does not fall back on what was kept.
    del query.factors["S"]
    with pytest.raises(ValueError, match="do not match hyperedges"):
        query.with_backend("columnar")


def test_changing_any_other_field_yields_a_fresh_conversion():
    query = _small_query()
    first = query.with_backend("columnar")
    query.domains["A"] = (0, 1, 2, 3)
    second = query.with_backend("columnar")
    assert second is not first and second.domains["A"] == (0, 1, 2, 3)
    query.free_vars = ("A",)
    query.bound_order = ("B", "C")
    third = query.with_backend("columnar")
    assert third is not second and third.free_vars == ("A",)
    query.domains["B"] = (0,)
    with pytest.raises(ValueError, match=r"outside Dom\('B'\)"):
        query.with_backend("columnar")


def _frozen_state(query):
    """Everything of a query a reader could observe, copied out."""
    return (
        list(query.factors),
        {
            name: (
                f.schema, f.name, f.dictionaries,
                [c.tobytes() for c in f.codes], f.values.tobytes(),
            )
            for name, f in query.factors.items()
        },
        dict(query.domains), query.free_vars, query.bound_order,
        dict(query.aggregates), query.name, query.backend,
    )


@PIPELINE_SPECS
@pytest.mark.parametrize("engine", ["generator", "compiled"])
def test_execute_does_not_mutate_the_shared_query(make_spec, engine):
    spec = make_spec(engine=engine)
    make_cold()
    built, topology, assignment = materialize_scenario(spec)
    shared = built.query.with_backend("columnar")
    factors_before = dict(shared.factors)
    state_before = _frozen_state(shared)
    source_before = {n: dict(f.rows) for n, f in built.query.factors.items()}
    for _ in range(2):
        planner = Planner(
            built.query, topology, assignment=assignment,
            backend="columnar", engine=engine, solver=spec.solver,
        )
        assert planner.query is shared
        assert planner.execute(max_rounds=spec.max_rounds).correct
    assert all(shared.factors[n] is f for n, f in factors_before.items())
    assert _frozen_state(shared) == state_before
    assert {n: dict(f.rows) for n, f in built.query.factors.items()} == source_before


# ---------------------------------------------------------------------------
# The columnar domain check is the dict domain check
# ---------------------------------------------------------------------------


def _domain_error(factor, domain):
    """The ``ValueError`` text of validating ``factor`` against
    ``Dom(A) = domain`` (``None`` when it validates)."""
    try:
        FAQQuery(
            hypergraph=Hypergraph({"R": factor.schema}),
            factors={"R": factor},
            domains={v: domain for v in factor.schema},
            semiring=COUNTING,
        )
    except ValueError as err:
        return str(err)
    return None


NAN = float("nan")


@pytest.mark.parametrize(
    "column, domain, prefix",
    [
        ([0, 1, 9, 2], (0, 1, 2), "factor 'R' has values outside Dom('A'): [9]"),
        ([0, 1, 2], (0, 1, 2), None),
        (["a", "zz"], ("a", "b"), "factor 'R' has values outside Dom('A'): ['zz']"),
        # -0.0 equals (and hashes as) 0.0, so it is inside; NaN is outside
        # unless the domain holds that very object.
        ([0.0, -0.0, 1.5], (0.0, 1.5), None),
        ([-0.0, NAN], (0.0, 1.5), "factor 'R' has values outside Dom('A'): [nan]"),
        ([-0.0, NAN], (0.0, NAN), None),
    ],
)
def test_columnar_domain_check_fails_as_the_dict_one_does(column, domain, prefix):
    dict_factor = Factor(("A",), {(x,): 1 for x in column}, COUNTING, "R")
    columnar = ColumnarFactor.from_factor(dict_factor)
    assert columnar.active_domain("A") == dict_factor.active_domain("A")
    assert _domain_error(dict_factor, domain) == prefix
    assert _domain_error(columnar, domain) == prefix


@pytest.mark.parametrize("with_array", [True, False])
def test_unused_dictionary_codes_are_not_in_the_active_domain(with_array):
    values = [0, 1, 2, 99]
    dictionary = (
        Dictionary(values, array=np.array(values)) if with_array else values
    )

    def factor(codes):
        return ColumnarFactor._from_arrays(
            ("A",), [np.array(codes)], [dictionary],
            np.ones(len(codes), dtype=np.int64), COUNTING, "R",
        )

    unused = factor([2, 0, 1])
    assert unused.active_domain("A") == {0, 1, 2}
    assert _domain_error(unused, (0, 1, 2)) is None
    used = factor([0, 3, 1])
    assert used.active_domain("A") == {0, 1, 99}
    assert _domain_error(used, (0, 1, 2)) == _domain_error(
        used.to_dict_factor(), (0, 1, 2)
    ) == "factor 'R' has values outside Dom('A'): [99]"
    assert factor([]).active_domain("A") == set()
