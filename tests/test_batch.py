"""The stacked-solve oracle over a suite run — stacking, grouping, and
what :func:`run_suite_batched` adds to :func:`run_suite`.

A batched run is a serial ``run_suite`` followed by one stacked solve
per multi-member group of the scenarios that ran fresh, so its
deterministic records are byte-for-byte a serial run's (the hypothesis
property drives random fuzz-suite slices, every scenario swept across
the full engine x solver x backend x kernels grid, through both), and a
disagreeing stacked solve raises after the results are already cached.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faq import FAQQuery, solve_variable_elimination
from repro.faq.reference import (
    SCENARIO_VAR,
    stack_queries,
    structural_signature,
    unstack_answers,
)
from repro.hypergraph import Hypergraph
from repro.lab import ResultCache, answer_digest, run_suite
from repro.lab import batch as batch_module
from repro.lab.batch import (
    BatchParityError,
    plan_groups,
    run_suite_batched,
    verify_group,
)
from repro.lab.generate import fuzz_suite
from repro.lab.runner import _execute_with_context
from repro.lab.spec import SuiteSpec
from repro.lab.suites import DEFAULT_SEED
from repro.semiring import BOOLEAN, Factor, get_semiring


# ---------------------------------------------------------------------------
# Stacking primitives
# ---------------------------------------------------------------------------


def _path_query(rows_r, rows_s, name="q"):
    """R(a,b) |x| S(b,c) over the counting semiring, free var ``a``."""
    counting = get_semiring("counting")
    h = Hypergraph({"R": ("a", "b"), "S": ("b", "c")})
    domains = {"a": (0, 1, 2), "b": (0, 1, 2), "c": (0, 1, 2)}
    factors = {
        "R": Factor(("a", "b"), {k: 1 for k in rows_r}, counting, name="R"),
        "S": Factor(("b", "c"), {k: 1 for k in rows_s}, counting, name="S"),
    }
    return FAQQuery(
        hypergraph=h,
        factors=factors,
        domains=domains,
        free_vars=("a",),
        semiring=counting,
        name=name,
    )


def test_stack_queries_shape_and_rows():
    q0 = _path_query([(0, 1)], [(1, 2)])
    q1 = _path_query([(2, 0), (1, 0)], [(0, 0)])
    stacked = stack_queries([q0, q1])
    assert stacked.free_vars == (SCENARIO_VAR, "a")
    assert stacked.backend == "columnar"
    assert stacked.domains[SCENARIO_VAR] == (0, 1)
    r = stacked.factors["R"]
    assert tuple(r.schema) == (SCENARIO_VAR, "a", "b")
    assert set(r.rows) == {(0, 0, 1), (1, 2, 0), (1, 1, 0)}


def test_stack_solve_unstack_matches_individual_solves():
    q0 = _path_query([(0, 1), (1, 1)], [(1, 0), (1, 2)])
    q1 = _path_query([(2, 2)], [(2, 0)])
    stacked = stack_queries([q0, q1])
    answer = solve_variable_elimination(stacked)
    per = unstack_answers(answer, ("a",), 2)
    for query, rows in zip((q0, q1), per):
        expected = solve_variable_elimination(query)
        assert answer_digest(("a",), rows) == answer_digest(
            tuple(expected.schema), expected.rows
        )


def test_structural_signature_ignores_data_not_shape():
    q0 = _path_query([(0, 1)], [(1, 2)])
    q1 = _path_query([(2, 2), (0, 0)], [(0, 1)])
    assert structural_signature(q0) == structural_signature(q1)
    different = FAQQuery(
        hypergraph=q0.hypergraph,
        factors=q0.factors,
        domains=q0.domains,
        free_vars=("a", "b"),
        semiring=q0.semiring,
    )
    assert structural_signature(q0) != structural_signature(different)


# ---------------------------------------------------------------------------
# Grouping and the stacked-solve oracle
# ---------------------------------------------------------------------------


def _small_axes_suite(count=1, master=DEFAULT_SEED, name="batch-test"):
    """``count`` fuzz identities swept across all 16 axis planes."""
    return fuzz_suite(master_seed=master, count=count, name=name)


def test_plan_groups_partitions_and_stacks_axis_planes():
    suite = _small_axes_suite(count=2)
    groups = plan_groups(list(suite.scenarios))
    total = sum(len(members) for _sig, members in groups)
    assert total == len(suite.scenarios)
    multi = [m for sig, m in groups if sig is not None and len(m) >= 2]
    # The 16 axis planes of one identity always share a signature.
    assert multi and max(len(m) for m in multi) >= 16


def test_verify_group_raises_on_corrupted_digest():
    suite = _small_axes_suite(count=1)
    groups = plan_groups(list(suite.scenarios))
    sig, members = next(
        (g for g in groups if g[0] is not None and len(g[1]) >= 2)
    )
    members = members[:2]
    results = [_execute_with_context(spec) for spec in members]
    verify_group(members, results)  # sane results pass
    results[1].answer_digest = "corrupted"
    with pytest.raises(BatchParityError, match="stacked solve disagreed"):
        verify_group(members, results)


# ---------------------------------------------------------------------------
# The byte-identity property
# ---------------------------------------------------------------------------


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    master=st.sampled_from((DEFAULT_SEED, 7, 20260807)),
    count=st.integers(min_value=1, max_value=2),
)
def test_batched_records_byte_identical_to_serial(master, count):
    """Random fuzz slices, all 16 planes each (both engines, both
    solvers, both backends, both kernel tiers): batched == serial."""
    suite = fuzz_suite(
        master_seed=master, count=count, name=f"prop-{master}-{count}"
    )
    batched = run_suite_batched(suite, baseline_sample=0)
    serial = run_suite(suite)
    assert [r.deterministic_record() for r in batched.results] == [
        r.deterministic_record() for r in serial.results
    ]


def test_batch_stats_have_the_documented_keys():
    run = run_suite_batched(_small_axes_suite(count=2))
    stats = run.batch
    assert set(stats) == {
        "groups", "multi_groups", "grouped_scenarios", "stacked_checks",
        "plane_twins",
    }
    assert stats["grouped_scenarios"] == 32
    assert stats["stacked_checks"] == stats["multi_groups"] >= 1
    assert stats["plane_twins"] == 0


def test_only_fresh_members_are_cross_checked(tmp_path, monkeypatch):
    suite = _small_axes_suite(count=2)
    head = SuiteSpec(name="head", scenarios=suite.scenarios[:16])
    run_suite(head, cache=ResultCache(str(tmp_path)))
    checked = []
    monkeypatch.setattr(
        batch_module, "verify_group",
        lambda members, results: checked.extend(members),
    )
    run = run_suite_batched(suite, cache=ResultCache(str(tmp_path)))
    assert (run.cache_hits, run.executed) == (16, 16)
    assert checked == list(suite.scenarios[16:])
    assert run.batch["grouped_scenarios"] == 16


def test_baseline_sample_is_rejected():
    with pytest.raises(ValueError, match="baseline_sample"):
        run_suite_batched(_small_axes_suite(count=1), baseline_sample=5)


def test_wrong_stacked_answer_raises_after_results_are_cached(
    tmp_path, monkeypatch
):
    suite = _small_axes_suite(count=1)
    real = batch_module.solve_stacked

    def wrong_row(queries):
        answers = real(queries)
        schema, _rows = answers[-1]
        return answers[:-1] + [(schema, {("bogus",) * len(schema): "wrong"})]

    monkeypatch.setattr(batch_module, "solve_stacked", wrong_row)
    with pytest.raises(BatchParityError, match="stacked solve disagreed"):
        run_suite_batched(suite, cache=ResultCache(str(tmp_path)))
    rerun = run_suite(suite, cache=ResultCache(str(tmp_path)))
    assert (rerun.cache_hits, rerun.executed) == (16, 0)
