"""Table 1: the ``table1`` suite, its row shapes and the ``lab run`` gate.

``lab run`` gates every run of a Table 1 family on its own row
(:func:`repro.lab.report.table1_violation`): a defined gap within
``TABLE1_POLYLOG_ALLOWANCE`` times the recorded budget, and on the hard
rows at least the formula lower bound's rounds.  This file holds what
no single run can check — each row's shape across its sweep — pins the
rendered table in ``tests/golden/TABLE1_golden.md``, and drives the
gate's boundaries through the ``lab run`` failure path.
"""

import dataclasses
import os

import pytest

import repro.lab.__main__ as lab_cli
from repro.core import Planner
from repro.faq import bcq
from repro.hypergraph import Hypergraph
from repro.lab import SuiteRun, SuiteSpec, aggregate, expand_grid, get_suite, run_suite
from repro.lab.report import (
    bound_violations,
    format_aggregate_table,
    format_results_table,
)
from repro.lowerbounds import (
    core_embedding_capacity,
    embed_tribes_in_core,
    hard_tribes,
    table1_gap_budget,
)
from repro.lowerbounds.bounds import TABLE1_POLYLOG_ALLOWANCE
from repro.network import Topology

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "TABLE1_golden.md")


@pytest.fixture(scope="module")
def table1():
    return run_suite(get_suite("table1")).results


def _row(results, family):
    return [r for r in results if r.spec.family == family]


def render_golden(results) -> str:
    """The Table 1 report: the per-run table and the family aggregates.

    Every number in it is deterministic; no counter and no wall time
    appears, so only a change to the protocol's rounds, the bound
    formulas or the suite moves it.
    """
    return (
        "# Table 1\n\n"
        "The `table1` suite (`python -m repro.lab run table1`): one line "
        "per run, then the per-family aggregates.\n\n"
        "```\n" + format_results_table(results) + "\n```\n\n"
        "```\n" + format_aggregate_table(aggregate(results)) + "\n```\n"
    )


def test_table1_matches_golden(table1):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert render_golden(table1) == expected, (
        "TABLE1_golden.md drifted from the golden file; if the change is "
        "intentional, regenerate tests/golden/ (see its README)"
    )


def test_lab_run_table1_exits_0_and_prints_the_table(table1, tmp_path, capsys):
    code = lab_cli.main(["run", "table1", "--no-cache", "--quiet", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert format_results_table(table1) in out
    assert "0 violation(s)" in out


def test_faq_line_rounds_linear_in_n_with_constant_gap(table1):
    """Row 1: doubling N roughly doubles the rounds (Θ(N)), and the gap
    does not grow with N (Õ(1))."""
    line = _row(table1, "faq-line")
    assert [r.spec.n for r in line] == [64, 128, 256]
    for a, b in zip(line, line[1:]):
        ratio = b.measured_rounds / a.measured_rounds
        assert 1.4 <= ratio <= 2.8, (a.measured_rounds, b.measured_rounds)
    gaps = [r.gap for r in line]
    assert max(gaps) <= 2.5 * min(gaps)


def test_faq_arbitrary_connectivity_helps(table1):
    """Row 2: the clique needs no more rounds than the line on the same
    instance."""
    by_topology = {r.spec.topology: r for r in _row(table1, "faq-arbitrary")}
    assert by_topology["clique"].measured_rounds <= by_topology["line"].measured_rounds


def test_bcq_degenerate_gap_at_most_linear_in_d(table1):
    """Row 3: the Õ(d) shape — gap / d stays bounded across d = 1, 2, 3."""
    rows = _row(table1, "bcq-degenerate")
    assert [r.d for r in rows] == [1.0, 2.0, 3.0]
    normalized = [r.gap / r.d for r in rows]
    assert max(normalized) <= 8 * min(normalized) + 8


def test_faq_hypergraph_rounds_linear_in_n():
    """Row 4: rounds scale linearly in N for a fixed structure."""
    suite = SuiteSpec(
        name="hypergraph-n-scaling",
        scenarios=expand_grid(
            dict(
                family="faq-hypergraph",
                query="acyclic",
                query_params={"edges": 4, "arity": 3},
                topology="clique",
                topology_params={"n": 4},
                domain_size=16,
                semiring="counting",
                seed=7,
            ),
            n=[48, 96],
        ),
    )
    results = run_suite(suite).results
    assert all(r.correct for r in results)
    assert bound_violations([r.deterministic_record() for r in results]) == []
    small, large = (r.measured_rounds for r in results)
    assert 1.3 <= large / small <= 3.0, (small, large)


def test_theorem_4_4_core_instance_within_d_budget():
    """The Theorem 4.4 hard instance itself — TRIBES embedded in the core
    of cycle(5), on ring(5) — is answered correctly within its d-budgeted
    gap (at twice the lab's allowance: 128)."""
    h = Hypergraph.cycle(5)
    _mode, cap = core_embedding_capacity(h)
    tribes = hard_tribes(cap, 16, True, seed=3)
    emb = embed_tribes_in_core(h, tribes)
    query = bcq(h, emb.factors, emb.domains, name="cycle5-hard")
    report = Planner(query, Topology.ring(5)).execute()
    assert report.correct
    components = report.predicted.components
    budget = table1_gap_budget(
        "bcq-degenerate", components.get("d", 1.0), components.get("r", 2.0)
    )
    assert report.measured_gap <= 128 * budget, (report.measured_gap, budget)


# ---------------------------------------------------------------------------
# The gate's boundaries, through ``lab run``'s failure path
# ---------------------------------------------------------------------------


def _edited(base, seed, family, **fields):
    """A copy of a real result under another family, with a label of its
    own (the seed is part of it) and the given fields replaced."""
    spec = base.spec.with_(family=family, seed=seed)
    return dataclasses.replace(base, spec=spec, **fields)


def _lab_run(results, monkeypatch, tmp_path, capsys):
    """``lab run`` over hand-built results: its exit code and the labels
    of the runs it lists as bound violations."""

    def fake_run_suite(suite, **_kwargs):
        return SuiteRun(
            suite=suite, results=list(results), cache_hits=0,
            executed=len(results), jobs=1, wall_time=0.0,
        )

    monkeypatch.setattr(lab_cli, "run_suite", fake_run_suite)
    code = lab_cli.main(["run", "table1", "--no-cache", "--quiet", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    listed = []
    if "BOUND VIOLATIONS" in out:
        for line in out.split("BOUND VIOLATIONS", 1)[1].splitlines()[1:]:
            if not line.startswith("  "):
                break
            listed.append(line.strip())
    return code, listed


@pytest.fixture()
def base(table1):
    return table1[0]  # faq-line, N=64: correct, certified, within budget


def test_gate_gap_at_the_allowance_passes_just_above_fails(
    base, monkeypatch, tmp_path, capsys
):
    budget = 2.0
    at = _edited(base, 1, "bcq-degenerate", gap=64.0 * budget, gap_budget=budget)
    above = _edited(base, 2, "bcq-degenerate", gap=64.01 * budget, gap_budget=budget)
    code, listed = _lab_run([at, above], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert len(listed) == 1
    assert listed[0].startswith(above.spec.label + ": Table 1 gap 128.02")


def test_gate_undefined_gap_fails_on_a_table1_family(
    base, monkeypatch, tmp_path, capsys
):
    table1_run = _edited(base, 1, "faq-hypergraph", gap=None)
    other = _edited(base, 2, "fuzz-tree", gap=None)
    code, listed = _lab_run([table1_run, other], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert listed == [f"{table1_run.spec.label}: Table 1 gap undefined "
                      f"(formula lower bound 0)"]


def test_gate_hard_row_one_round_under_its_formula_fails(
    base, monkeypatch, tmp_path, capsys
):
    rounds = base.measured_rounds
    on_formula = _edited(base, 1, "faq-line", lower_formula=float(rounds))
    under = _edited(base, 2, "faq-line", lower_formula=float(rounds + 1))
    # Random-instance rows may beat the worst-case formula.
    random_row = _edited(base, 3, "bcq-degenerate", lower_formula=float(rounds + 1))
    code, listed = _lab_run(
        [on_formula, under, random_row], monkeypatch, tmp_path, capsys
    )
    assert code == 1
    assert listed == [
        f"{under.spec.label}: {rounds} rounds < formula lower bound "
        f"{rounds + 1:.1f}"
    ]


def test_gate_skips_families_outside_table1(base, monkeypatch, tmp_path, capsys):
    over = 1000.0 * TABLE1_POLYLOG_ALLOWANCE
    fuzz = _edited(base, 1, "fuzz-tree", gap=over, gap_budget=1.0)
    row = _edited(base, 2, "faq-arbitrary", gap=over, gap_budget=1.0)
    code, listed = _lab_run([fuzz, row], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert len(listed) == 1
    assert listed[0].startswith(row.spec.label + ": ")


def test_family_aggregate_counts_what_the_violation_list_lists(table1):
    # One faq-line run far over its budget: the artifact's list names it
    # once, and so does its family's aggregate (which counted failed
    # certification oracles only, and read 0 here).
    results = list(table1)
    index = next(
        i for i, r in enumerate(results) if r.spec.family == "faq-line"
    )
    results[index] = dataclasses.replace(results[index], gap=1000.0)
    listed = bound_violations([r.deterministic_record() for r in results])
    assert len(listed) == 1
    assert listed[0].startswith(results[index].spec.label + ": Table 1 gap")
    counts = {row.family: row.bound_violations for row in aggregate(results)}
    assert counts["faq-line"] == 1
    assert sum(counts.values()) == 1
