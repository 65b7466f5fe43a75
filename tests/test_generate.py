"""Tests for the fuzzed scenario plane — repro.lab.generate + certification.

Covers the load-bearing guarantees of the fuzz harness:

* scenario generation is deterministic per master seed, prefix-stable,
  and every sampled spec materializes into a runnable scenario;
* the fuzz suites sweep each scenario across the full
  engine x solver x backend grid in pairable blocks;
* a fuzz run certifies the paper's bounds: zero bound violations, zero
  parity failures, certification recorded in the artifact;
* the certification oracle actually fires on tampered records;
* ``--seed`` regenerates a whole suite from the CLI.
"""

import json
import os

import pytest

from repro.lab import (
    ARTIFACT_FILENAME,
    CERTIFIED_QUERY_FAMILIES,
    ScenarioSpec,
    SuiteSpec,
    all_parity_failures,
    bound_violations,
    certification_payload,
    execute_scenario,
    format_certification_table,
    fuzz_suite,
    generate_scenarios,
    get_suite,
    run_suite,
    sample_scenario,
    with_axes,
    with_backends,
)
from repro.lab.__main__ import main as lab_main
from repro.lab.generate import FUZZ_SEMIRINGS, sample_topology
from repro.lab.suites import register_suite
from repro.pipeline import build_query, build_topology

MASTER = 987654


# ---------------------------------------------------------------------------
# Generation determinism and validity
# ---------------------------------------------------------------------------


def test_generate_scenarios_deterministic():
    a = generate_scenarios(MASTER, 20)
    b = generate_scenarios(MASTER, 20)
    assert a == b
    assert [s.content_hash() for s in a] == [s.content_hash() for s in b]
    assert generate_scenarios(MASTER + 1, 20) != a


def test_generate_scenarios_prefix_stable():
    """Growing the count appends scenarios, never perturbs earlier ones."""
    assert generate_scenarios(MASTER, 5) == generate_scenarios(MASTER, 12)[:5]


def test_sample_scenario_seed_is_spec_seed():
    spec = sample_scenario(4242)
    assert spec.seed == 4242
    assert sample_scenario(4242) == spec


def test_generated_scenarios_all_materialize():
    """Every sampled spec builds a live query + topology without error."""
    for spec in generate_scenarios(MASTER, 30):
        built = build_query(spec)
        topology = build_topology(spec)
        assert built.query.hypergraph.num_edges >= 1
        assert topology.num_nodes >= 2
        if spec.assignment == "worst-case":
            assert spec.query in CERTIFIED_QUERY_FAMILIES
            assert built.s_edges and built.t_edges


def test_generated_scenarios_cover_the_plane():
    """Over a healthy sample, every query kind, several topology
    families, several semirings and both assignment classes appear."""
    specs = generate_scenarios(MASTER, 80)
    queries = {s.query for s in specs}
    topologies = {s.topology for s in specs}
    semirings = {s.semiring for s in specs}
    assignments = {s.assignment for s in specs}
    assert {"tree", "forest", "degenerate", "acyclic"} <= queries
    assert queries & CERTIFIED_QUERY_FAMILIES
    assert len(topologies) >= 6
    assert len(semirings) >= 4
    assert semirings <= set(FUZZ_SEMIRINGS)
    assert "worst-case" in assignments and "round-robin" in assignments


def test_sample_topology_params_always_valid():
    import random

    for seed in range(60):
        name, params = sample_topology(random.Random(seed))
        spec = ScenarioSpec(
            family="t", query="tree", query_params={"edges": 2},
            topology=name, topology_params=params, n=8, seed=seed,
        )
        assert build_topology(spec).num_nodes >= 2


# ---------------------------------------------------------------------------
# Axis expansion
# ---------------------------------------------------------------------------


def test_with_backends_pairs_every_scenario():
    base = fuzz_suite(MASTER, count=3, axes=False)
    paired = with_backends(base, "b", "d")
    assert len(paired) == 2 * len(base)
    for dict_spec, col_spec in zip(paired.scenarios[::2], paired.scenarios[1::2]):
        assert dict_spec.backend == "dict"
        assert col_spec.backend == "columnar"
        assert dict_spec.with_(backend=None) == col_spec.with_(backend=None)


def test_with_axes_expands_to_eight_planes():
    base = fuzz_suite(MASTER, count=2, axes=False)
    full = with_axes(base, "f", "d")
    assert len(full) == 8 * len(base)
    # Each block of 8 shares one scenario identity modulo the axes.
    for i in range(len(base)):
        block = full.scenarios[8 * i: 8 * (i + 1)]
        identities = {
            s.with_(engine="generator", solver="operator", backend=None)
            for s in block
        }
        assert len(identities) == 1
        assert len({(s.engine, s.solver, s.backend) for s in block}) == 8
        assert {s.kernels for s in block} == {"numpy"}


def test_fuzz_suites_registered_and_reseedable():
    smoke = get_suite("fuzz-smoke")
    assert len(smoke) == 6 * 8
    reseeded = get_suite("fuzz-smoke", seed=MASTER)
    assert reseeded != smoke
    assert get_suite("fuzz-smoke", seed=MASTER) == reseeded
    with pytest.raises(ValueError, match="takes no seed"):
        get_suite("smoke", seed=1)


# ---------------------------------------------------------------------------
# Certification end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_run():
    """One shared small differential fuzz run (3 scenarios x 8 planes)."""
    return run_suite(fuzz_suite(MASTER, count=3, name="fuzz-test"))


def test_fuzz_run_certifies_all_planes(fuzz_run):
    records = [r.deterministic_record() for r in fuzz_run.results]
    assert fuzz_run.all_correct
    assert bound_violations(records) == []
    assert all_parity_failures(records) == []


def test_fuzz_run_records_bounds_and_gaps(fuzz_run):
    for result in fuzz_run.results:
        record = result.deterministic_record()
        assert record["lower_formula"] >= 0
        assert record["upper_formula"] >= record["lower_formula"]
        assert record["gap_budget"] >= 1.0
        assert record["bound_ok"] is True
        assert record["cut_ok"] is True
        assert record["measured_rounds"] + 1e-9 >= record["lower_certified"]
        if record["cut_size"]:
            # The cut-accounting bound is a genuine per-run constraint.
            assert record["cut_bits"] >= 0
            assert record["lower_certified"] > 0 or record["cut_bits"] == 0


def test_fuzz_certification_payload(fuzz_run):
    records = [r.deterministic_record() for r in fuzz_run.results]
    cert = certification_payload(records)
    assert cert["scenarios_checked"] == len(records)
    assert cert["bound_violations"] == []
    assert cert["formula_certified"] == sum(
        1 for r in records if r["formula_certified"]
    )
    for family, stats in cert["formula_families"].items():
        assert family.startswith("fuzz-hard")
        # gap stats are diagnostics (the rounds-form formula is a shape
        # claim); the hard gate is the TRIBES bits floor, checked below.
        assert stats["scenarios"] >= 1
    table = format_certification_table(records)
    assert "violations" in table and "margin" in table


def test_hard_scenarios_are_formula_certified():
    spec = ScenarioSpec(
        family="fuzz-hard-star", query="hard-star",
        query_params={"arms": 3}, topology="line", topology_params={"n": 3},
        n=16, assignment="worst-case", seed=MASTER,
    )
    result = execute_scenario(spec)
    assert result.formula_certified
    assert result.tribes_bits_floor > 0
    assert result.cut_bits >= result.tribes_bits_floor
    assert result.bound_ok


def test_rounds_form_formula_is_not_gated_regression():
    """Fuzz-found (master seed 31415): a hard-forest on a tree topology
    ships only the smaller TRIBES side, beating the constant-1 *rounds*
    form of the formula (gap < 1) while satisfying the *bits* floor with
    a wide margin.  The oracle must certify the run, and the gap stays
    recorded as a diagnostic."""
    spec = ScenarioSpec(
        family="fuzz-hard-forest", query="hard-forest",
        query_params={"edges": 3, "trees": 3}, topology="tree",
        topology_params={"branching": 2, "depth": 2}, n=64,
        assignment="worst-case", seed=957508337,
    )
    result = execute_scenario(spec)
    assert result.bound_ok
    assert result.gap is not None and result.gap < 1.0
    assert result.cut_bits >= result.tribes_bits_floor == 192
    assert bound_violations([result.deterministic_record()]) == []


def test_random_scenarios_certify_cut_only():
    spec = ScenarioSpec(
        family="fuzz-tree", query="tree", query_params={"edges": 3},
        topology="clique", topology_params={"n": 3}, n=8, seed=MASTER,
    )
    result = execute_scenario(spec)
    assert not result.formula_certified
    assert result.tribes_bits_floor == 0
    assert result.cut_size > 0
    assert result.bound_ok


def test_single_player_scenario_has_empty_cut():
    spec = ScenarioSpec(
        family="fuzz-tree", query="tree", query_params={"edges": 3},
        topology="clique", topology_params={"n": 3}, n=8, seed=MASTER,
        assignment="single",
    )
    result = execute_scenario(spec)
    assert result.cut_size == 0
    assert result.cut_bits == 0
    assert result.lower_certified == 0.0
    assert result.bound_ok


def test_bound_violations_fire_on_tampered_records(fuzz_run):
    records = [r.deterministic_record() for r in fuzz_run.results]
    tampered = json.loads(json.dumps(records))
    tampered[0]["bound_ok"] = False
    violations = bound_violations(tampered)
    assert len(violations) == 1
    assert tampered[0]["label"] in violations[0]
    # A cut-accounting break names the transcript numbers.
    tampered[1]["bound_ok"] = False
    tampered[1]["cut_ok"] = False
    assert "cut accounting" in bound_violations(tampered)[1]
    # A bits-floor break (cut_ok and rounds fine) names the floor.
    tampered[2]["bound_ok"] = False
    tampered[2]["tribes_bits_floor"] = tampered[2]["cut_bits"] + 1
    assert "TRIBES floor" in bound_violations(tampered)[2]


def test_hard_forest_family_needs_plantable_trees():
    spec = ScenarioSpec(
        family="fuzz-hard-forest", query="hard-forest",
        query_params={"trees": 2, "edges": 1}, topology="line",
        topology_params={"n": 3}, n=16, assignment="worst-case", seed=1,
    )
    with pytest.raises(ValueError, match="edges >= 2"):
        execute_scenario(spec)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_fuzz_run_with_seed(tmp_path, capsys):
    register_suite(
        "fuzz-tiny",
        lambda seed=MASTER: fuzz_suite(seed, count=2, name="fuzz-tiny"),
        overwrite=True,
    )
    out = str(tmp_path)
    code = lab_main(
        ["run", "fuzz-tiny", "--seed", "31337", "--out", out,
         "--no-cache", "--quiet"]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "0 violation(s)" in captured
    assert "0 parity failure(s)" in captured
    payload = json.load(open(os.path.join(out, ARTIFACT_FILENAME)))
    assert payload["certification"]["bound_violations"] == []
    assert payload["scenario_count"] == 16
    # The seed override reached the generator: specs carry child seeds
    # of 31337, not of the default master seed.
    expected = [s.to_json_dict() for s in fuzz_suite(31337, 2, "fuzz-tiny")]
    assert [s["spec"] for s in payload["scenarios"]] == expected


def test_cli_parity_covers_backend_axis(tmp_path, capsys):
    register_suite(
        "backend-tiny",
        lambda: with_backends(
            SuiteSpec(
                "backend-tiny",
                (
                    ScenarioSpec(
                        family="b", query="tree", query_params={"edges": 2},
                        topology="line", topology_params={"n": 2}, n=8,
                        seed=5,
                    ),
                ),
            ),
            "backend-tiny", "",
        ),
        overwrite=True,
    )
    out = str(tmp_path)
    assert lab_main(
        ["run", "backend-tiny", "--out", out, "--no-cache", "--quiet"]
    ) == 0
    artifact = os.path.join(out, ARTIFACT_FILENAME)
    assert lab_main(["parity", artifact]) == 0
    assert "1 backend pair(s)" in capsys.readouterr().out
