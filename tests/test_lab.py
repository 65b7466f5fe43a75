"""Tests for repro.lab — specs, cache, runner, report, CLI.

Covers the lab's load-bearing guarantees:

* spec content hashes are stable (pinned) and construction-order
  independent;
* seedless scenarios are rejected at the boundary;
* the result cache hits on identical specs, misses on changed ones, and
  survives corruption;
* serial and parallel runs produce byte-identical artifacts;
* the CLI runs a suite end-to-end and writes ``BENCH_lab.json``, and
  names a missing suite or file in one line with exit code 2.
"""

import json
import os
import re

import pytest

from repro.lab import (
    ARTIFACT_FILENAME,
    ResultCache,
    ScenarioSpec,
    SuiteSpec,
    aggregate,
    answer_digest,
    artifact_bytes,
    execute_scenario,
    expand_grid,
    get_suite,
    percentile,
    run_suite,
    suite_names,
)
from repro.lab.__main__ import main as lab_main
from repro.lab.results import ScenarioResult
from repro.lab.suites import register_suite
from repro.pipeline import build_query, build_topology


def tiny_spec(**overrides):
    base = dict(
        family="bcq-degenerate",
        query="degenerate",
        query_params={"vertices": 4, "d": 1},
        topology="clique",
        topology_params={"n": 3},
        n=8,
        domain_size=8,
        seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def tiny_suite(name="tiny"):
    return SuiteSpec(
        name=name,
        scenarios=(
            tiny_spec(),
            tiny_spec(backend="columnar"),
            ScenarioSpec(
                family="faq-line",
                query="hard-star",
                query_params={"arms": 3},
                topology="line",
                topology_params={"n": 3},
                n=12,
                assignment="worst-case",
                seed=11,
            ),
            ScenarioSpec(
                family="faq-hypergraph",
                query="acyclic",
                query_params={"edges": 3, "arity": 2},
                topology="hypercube",
                topology_params={"dim": 2},
                n=8,
                domain_size=4,
                semiring="counting",
                seed=11,
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


def test_spec_rejects_seed_none():
    with pytest.raises(ValueError, match="seed"):
        tiny_spec(seed=None)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="semiring"):
        tiny_spec(semiring="nope")
    with pytest.raises(ValueError, match="backend"):
        tiny_spec(backend="nope")
    with pytest.raises(ValueError, match="assignment"):
        tiny_spec(assignment="nope")
    with pytest.raises(ValueError, match="n must be positive"):
        tiny_spec(n=0)
    with pytest.raises(ValueError, match="JSON scalar"):
        tiny_spec(query_params={"bad": [1, 2]})


def test_spec_kernels_accepts_ledger_names_and_rejects_unknown():
    # The frozen ledger still builds specs with kernels="jit".
    assert tiny_spec(kernels="jit").kernels == "jit"
    assert tiny_spec(kernels="numpy").kernels == "numpy"
    with pytest.raises(ValueError, match="unknown kernel tier"):
        tiny_spec(kernels="cuda")


def test_spec_hash_is_construction_order_independent():
    a = tiny_spec(query_params={"vertices": 4, "d": 1})
    b = tiny_spec(query_params={"d": 1, "vertices": 4})
    assert a == b
    assert a.content_hash() == b.content_hash()


def test_spec_hash_pinned():
    """The content hash is a cross-session cache key — pin it."""
    spec = ScenarioSpec(
        family="pin", query="tree", topology="line", n=8, seed=1,
        query_params={"edges": 3}, topology_params={"n": 3},
    )
    # SPEC_VERSION 6: the kernel-tier axis + batch/kernel counters.
    assert spec.content_hash() == (
        "8209bbcef93c44a183f927dcd635898a72ec4bd4266b5eb6a56501fb90fece9d"
    )


def test_spec_hash_changes_with_any_field():
    base = tiny_spec()
    for changed in (
        tiny_spec(seed=12),
        tiny_spec(n=9),
        tiny_spec(backend="columnar"),
        tiny_spec(query_params={"vertices": 4, "d": 2}),
        tiny_spec(topology_params={"n": 4}),
    ):
        assert changed.content_hash() != base.content_hash()


def test_spec_json_round_trip():
    spec = tiny_spec(backend="columnar", assignment="single")
    again = ScenarioSpec.from_json_dict(
        json.loads(json.dumps(spec.to_json_dict()))
    )
    assert again == spec
    assert again.content_hash() == spec.content_hash()


def test_expand_grid_cartesian_and_deterministic():
    specs = expand_grid(
        dict(family="f", query="tree", topology="line",
             topology_params={"n": 3}, seed=1),
        n=[8, 16],
        backend=["dict", "columnar"],
    )
    assert len(specs) == 4
    # Rightmost axis varies fastest.
    assert [(s.n, s.backend) for s in specs] == [
        (8, "dict"), (8, "columnar"), (16, "dict"), (16, "columnar"),
    ]
    with pytest.raises(ValueError, match="empty"):
        expand_grid(dict(family="f", query="tree", topology="line", seed=1), n=[])


def test_suite_families_and_merge_dedup():
    suite = tiny_suite()
    assert suite.families == ("bcq-degenerate", "faq-line", "faq-hypergraph")
    merged = suite.merged_with(tiny_suite())
    assert len(merged) == len(suite)  # identical scenarios dedup


# ---------------------------------------------------------------------------
# Results helpers
# ---------------------------------------------------------------------------


def test_percentile_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_answer_digest_canonical():
    a = answer_digest(("A",), {(1,): True, (0,): True})
    b = answer_digest(("A",), {(0,): True, (1,): True})
    assert a == b
    assert answer_digest(("A",), {(0,): True}) != a
    assert answer_digest(("B",), {(1,): True, (0,): True}) != a


# ---------------------------------------------------------------------------
# Execution + cache
# ---------------------------------------------------------------------------


def test_execute_scenario_is_deterministic():
    spec = tiny_spec()
    first = execute_scenario(spec).deterministic_record()
    second = execute_scenario(spec).deterministic_record()
    assert first == second


def test_colocated_scenario_has_undefined_gap():
    """assignment='single' co-locates everything: lower bound 0, gap None;
    the Table1Row view maps that to inf so budget checks fail loudly."""
    from repro.core import gap_within_budget

    result = execute_scenario(tiny_spec(assignment="single"))
    assert result.correct
    assert result.measured_rounds == 0
    assert result.gap is None
    row = result.to_table1_row()
    assert row.gap == float("inf")
    assert not gap_within_budget(row)
    # And the artifact stays strict JSON (null, not Infinity).
    json.dumps(result.deterministic_record(), allow_nan=False)


def test_result_record_round_trip():
    result = execute_scenario(tiny_spec())
    rebuilt = ScenarioResult.from_record(result.deterministic_record(), cached=True)
    assert rebuilt.deterministic_record() == result.deterministic_record()
    assert rebuilt.cached


def test_cache_miss_then_hit(tmp_path):
    suite = tiny_suite()
    cache = ResultCache(str(tmp_path / "cache"))
    first = run_suite(suite, cache=cache)
    assert first.cache_hits == 0
    assert first.executed == len(suite)

    # Fresh cache object (re-reads the JSONL): everything hits.
    cache2 = ResultCache(str(tmp_path / "cache"))
    second = run_suite(suite, cache=cache2)
    assert second.cache_hits == len(suite)
    assert second.executed == 0
    assert second.hit_rate >= 0.9
    assert all(r.cached for r in second.results)
    assert artifact_bytes(first) == artifact_bytes(second)


def test_fully_cached_pooled_rerun_reports_the_one_worker_it_used(tmp_path):
    suite = get_suite("smoke")
    first = run_suite(suite, jobs=2, cache=ResultCache(str(tmp_path)))
    assert first.jobs == 2
    rerun = run_suite(suite, jobs=2, cache=ResultCache(str(tmp_path)))
    assert (rerun.executed, rerun.jobs) == (0, 1)


def test_cache_misses_on_changed_spec(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_suite(SuiteSpec("one", (tiny_spec(),)), cache=cache)
    changed = run_suite(SuiteSpec("two", (tiny_spec(seed=12),)), cache=cache)
    assert changed.executed == 1
    assert changed.cache_hits == 0


def test_cache_force_reexecutes_but_still_writes(tmp_path):
    cache = ResultCache(str(tmp_path))
    suite = SuiteSpec("one", (tiny_spec(),))
    run_suite(suite, cache=cache)
    forced = run_suite(suite, cache=cache, force=True)
    assert forced.executed == 1 and forced.cache_hits == 0
    again = run_suite(suite, cache=ResultCache(str(tmp_path)))
    assert again.cache_hits == 1


def test_cache_skips_corrupt_lines(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("k1", {"x": 1})
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
        fh.write(json.dumps({"key": "k2", "schema": "other/schema"}) + "\n")
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get("k1") == {"x": 1}
    assert "k2" not in reloaded
    assert reloaded.skipped_lines == 2


def test_duplicate_scenarios_execute_once(tmp_path):
    spec = tiny_spec()
    suite = SuiteSpec("dup", (spec, spec))
    run = run_suite(suite, cache=ResultCache(str(tmp_path)))
    assert run.executed == 1
    assert len(run.results) == 2
    assert run.results[0].deterministic_record() == run.results[1].deterministic_record()
    # Both occurrences count as cache hits on a re-run: 100%, not 50%.
    again = run_suite(suite, cache=ResultCache(str(tmp_path)))
    assert again.executed == 0
    assert again.cache_hits == 2
    assert again.hit_rate == 1.0


def test_structure_and_instance_seed_streams_differ():
    """Regression: the runner must not feed the structure seed back into
    the instance generator (spawn_seeds prefix stability makes that an
    easy mistake)."""
    from repro.workloads import (
        random_d_degenerate_query,
        random_instance,
        spawn_seeds,
    )

    spec = tiny_spec()
    structure_seed, instance_seed = spawn_seeds(spec.seed, 2)
    assert structure_seed != instance_seed
    built = build_query(spec)
    h = random_d_degenerate_query(4, 1, seed=structure_seed)
    expected, _ = random_instance(h, 8, 8, seed=instance_seed)
    collided, _ = random_instance(h, 8, 8, seed=structure_seed)
    built_rows = {name: f.rows for name, f in built.query.factors.items()}
    assert built_rows == {name: f.rows for name, f in expected.items()}
    assert built_rows != {name: f.rows for name, f in collided.items()}


def test_partial_failure_preserves_completed_cache_writes(tmp_path):
    """One failing scenario must not discard its siblings' finished work:
    completed results are persisted as they arrive, then the failure is
    re-raised."""
    good = tiny_spec()
    bad = tiny_spec(assignment="worst-case")  # degenerate has no TRIBES sides
    suite = SuiteSpec("partial", (good, bad))
    with pytest.raises(RuntimeError, match="worst-case"):
        run_suite(suite, cache=ResultCache(str(tmp_path)), jobs=2)
    again = run_suite(
        SuiteSpec("good", (good,)), cache=ResultCache(str(tmp_path))
    )
    assert again.cache_hits == 1 and again.executed == 0


def test_serial_and_parallel_runs_are_byte_identical():
    suite = tiny_suite()
    serial = run_suite(suite, jobs=1)
    parallel = run_suite(suite, jobs=2)
    assert artifact_bytes(serial) == artifact_bytes(parallel)
    assert serial.all_correct


def test_runner_rejects_bad_jobs_and_unknown_families():
    with pytest.raises(ValueError, match="jobs"):
        run_suite(tiny_suite(), jobs=0)
    with pytest.raises(ValueError, match="query family"):
        build_query(tiny_spec(query="nope", query_params={}))
    with pytest.raises(ValueError, match="topology family"):
        build_topology(tiny_spec(topology="nope", topology_params={}))
    with pytest.raises(ValueError, match="topology params"):
        build_topology(tiny_spec(topology_params={"wrong": 1}))
    # An infeasible (degree, n) is bad params too, in the same words.
    for family, params in (
        ("regular", {"n": 5, "degree": 3}), ("expander", {"n": 4, "degree": 4}),
    ):
        with pytest.raises(
            ValueError, match=rf"bad topology params for '{family}'.*\(degree, n\)"
        ):
            build_topology(tiny_spec(topology=family, topology_params=params))


def test_worst_case_assignment_needs_hard_family():
    spec = tiny_spec(assignment="worst-case")
    with pytest.raises(RuntimeError, match="worst-case"):
        run_suite(SuiteSpec("bad", (spec,)))


# ---------------------------------------------------------------------------
# Registered suites + artifact + CLI
# ---------------------------------------------------------------------------


def test_registered_suites_are_buildable():
    names = suite_names()
    assert {"smoke", "table1", "backend-compare", "scaling"} <= set(names)
    for name in names:
        suite = get_suite(name)
        assert len(suite) > 0
    with pytest.raises(ValueError, match="unknown suite"):
        get_suite("nope")


def test_smoke_suite_covers_required_diversity():
    suite = get_suite("smoke")
    assert len(suite.families) >= 4
    assert len({s.query for s in suite}) >= 2
    assert len({s.topology for s in suite}) >= 2
    backends = {s.backend for s in suite}
    assert {"dict", "columnar"} <= backends


def test_artifact_payload_shape(tmp_path):
    run = run_suite(SuiteSpec("one", (tiny_spec(),)))
    payload = json.loads(artifact_bytes(run))
    assert payload["schema"] == "repro.lab/bench.v8"
    assert payload["suite"] == "one"
    assert payload["scenario_count"] == 1
    assert payload["all_correct"] is True
    (scenario,) = payload["scenarios"]
    assert scenario["spec"]["seed"] == 11
    assert scenario["measured_rounds"] >= 0
    assert scenario["bound_ok"] is True
    assert scenario["cut_ok"] is True
    (agg,) = payload["aggregates"]
    assert agg["family"] == "bcq-degenerate"
    assert agg["scenarios"] == 1
    assert agg["bound_violations"] == 0
    cert = payload["certification"]
    assert cert["scenarios_checked"] == 1
    assert cert["bound_violations"] == []


def test_committed_artifact_is_what_the_fuzz_suite_produces_now():
    """``BENCH_lab.json`` at the repo root is ``python -m repro.lab run
    fuzz``.  Every record in it is deterministic, so an engine, counter
    or schema change that is not followed by a regeneration fails here
    (CI's predict-vs-artifact step reads the same file)."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, ARTIFACT_FILENAME)
    with open(path, encoding="utf-8") as fh:
        committed = json.load(fh)
    committed.pop("timings", None)  # volatile, present under --timings
    assert committed == json.loads(artifact_bytes(run_suite(get_suite("fuzz"))))


def test_artifact_readers_refuse_another_schema(tmp_path, capsys):
    """``parity`` and ``predict --artifact`` read only the schema this
    lab writes: the committed artifact relabelled v7 exits 2, and the
    message names both schema ids."""
    from repro.lab.report import ARTIFACT_SCHEMA

    path = os.path.join(
        os.path.dirname(__file__), os.pardir, ARTIFACT_FILENAME)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["schema"] = "repro.lab/bench.v7"
    stale = str(tmp_path / ARTIFACT_FILENAME)
    with open(stale, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    for argv in (["parity", stale], ["predict", "fuzz", "--artifact", stale]):
        assert lab_main(argv) == 2
        out = capsys.readouterr().out
        assert "'repro.lab/bench.v7'" in out and repr(ARTIFACT_SCHEMA) in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "nosuch"], "run: error: unknown suite 'nosuch'; known suites: "),
        (["run", "smoke", "--seed", "3"],
         "run: error: suite 'smoke' is a fixed suite and takes no seed"),
        (["parity", "missing.json"],
         "parity: error: cannot read missing.json: No such file or directory"),
        (["predict", "fuzz", "--artifact", "missing.json"],
         "predict: error: cannot read missing.json: No such file or directory"),
    ],
)
def test_cli_usage_errors_exit_2_with_one_line(
    argv, message, tmp_path, monkeypatch, capsys
):
    """A suite or file that is not there is a usage error, not a failed
    gate: exit 2 and one line on stderr, no traceback."""
    monkeypatch.chdir(tmp_path)
    assert lab_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"python -m repro.lab {message}")
    assert captured.err.count("\n") == 1


def test_aggregate_groups_by_family():
    run = run_suite(tiny_suite())
    aggs = {a.family: a for a in aggregate(run.results)}
    assert aggs["bcq-degenerate"].scenarios == 2
    assert aggs["faq-line"].scenarios == 1
    assert aggs["bcq-degenerate"].correct == 2


def test_cli_run_and_list(tmp_path, capsys):
    register_suite("test-tiny", tiny_suite, overwrite=True)
    out = str(tmp_path / "out")
    code = lab_main(
        ["run", "test-tiny", "--out", out, "--jobs", "2", "--markdown", "--csv"]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured
    assert os.path.exists(os.path.join(out, ARTIFACT_FILENAME))
    assert os.path.exists(os.path.join(out, "LAB_tiny.md"))
    assert os.path.exists(os.path.join(out, "LAB_tiny.csv"))
    # Second CLI run: served from the cache written under <out>.
    code = lab_main(["run", "test-tiny", "--out", out, "--quiet"])
    assert code == 0
    assert "4 cached (100%)" in capsys.readouterr().out

    assert lab_main(["list"]) == 0
    assert "test-tiny" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Engine axis + parity tooling
# ---------------------------------------------------------------------------


def test_spec_engine_axis_validated_and_hashed():
    assert tiny_spec().engine == "generator"
    compiled = tiny_spec(engine="compiled")
    assert compiled.content_hash() != tiny_spec().content_hash()
    assert "compiled" in compiled.label
    with pytest.raises(ValueError, match="engine"):
        tiny_spec(engine="warp")


def test_with_engines_pairs_every_scenario():
    from repro.lab.suites import with_engines

    paired = with_engines(tiny_suite(), "paired", "desc")
    assert len(paired) == 2 * len(tiny_suite())
    engines = [s.engine for s in paired.scenarios]
    assert engines[:2] == ["generator", "compiled"]
    # pairs are adjacent and otherwise identical
    assert paired.scenarios[0].with_(engine="compiled") == paired.scenarios[1]


def test_engine_suites_registered():
    names = suite_names()
    assert "engine-compare" in names
    assert "engine-smoke" in names
    compare = get_suite("engine-compare")
    assert len(compare) == 2 * len(get_suite("table1"))


def test_execute_scenario_records_bits_and_engine_parity():
    gen = execute_scenario(tiny_spec())
    comp = execute_scenario(tiny_spec(engine="compiled"))
    assert gen.total_bits > 0
    assert 0.0 < gen.link_utilization <= 1.0
    assert comp.answer_digest == gen.answer_digest
    assert comp.measured_rounds == gen.measured_rounds
    assert comp.total_bits == gen.total_bits
    assert comp.link_utilization == gen.link_utilization


def test_parity_failures_detect_mismatch():
    from repro.lab.report import parity_failures

    gen = execute_scenario(tiny_spec()).deterministic_record()
    comp = execute_scenario(tiny_spec(engine="compiled")).deterministic_record()
    assert parity_failures([gen, comp]) == []
    tampered = dict(comp)
    tampered["total_bits"] = comp["total_bits"] + 1
    failures = parity_failures([gen, tampered])
    assert len(failures) == 1 and "total_bits" in failures[0]


def test_artifact_timings_key_is_opt_in(tmp_path):
    from repro.lab.report import artifact_payload
    from repro.lab.suites import with_engines

    suite = with_engines(tiny_suite("timed"), "timed", "desc")
    run = run_suite(suite)
    assert "timings" not in artifact_payload(run)
    payload = artifact_payload(run, timings=True)
    assert len(payload["timings"]["engine_pairs"]) == len(tiny_suite())
    pair = payload["timings"]["engine_pairs"][0]
    assert pair["generator_protocol_s"] > 0
    assert pair["compiled_protocol_s"] > 0
    assert payload["timings"]["headline"]["rows"] >= 1
    # One reader for every cache: each memo's traffic in this run.
    from repro.core.memo import memo_stats

    assert payload["timings"]["memos"] == memo_stats()
    assert "faq.plan_cache" in payload["timings"]["memos"]


def test_cli_parity_command(tmp_path, capsys):
    register_suite(
        "cli-parity-suite",
        lambda: SuiteSpec(
            name="cli-parity-suite",
            scenarios=(tiny_spec(), tiny_spec(engine="compiled")),
        ),
        overwrite=True,
    )
    out = str(tmp_path)
    code = lab_main(
        ["run", "cli-parity-suite", "--out", out, "--no-cache", "--quiet"]
    )
    assert code == 0
    artifact = os.path.join(out, ARTIFACT_FILENAME)
    assert lab_main(["parity", artifact]) == 0
    captured = capsys.readouterr().out
    assert "parity OK" in captured

    # Tamper with the artifact: parity must fail loudly.
    payload = json.load(open(artifact))
    payload["scenarios"][0]["measured_rounds"] += 1
    with open(artifact, "w") as fh:
        json.dump(payload, fh)
    assert lab_main(["parity", artifact]) == 1


def test_cli_engine_override(tmp_path, capsys):
    register_suite(
        "cli-engine-suite",
        lambda: SuiteSpec(name="cli-engine-suite", scenarios=(tiny_spec(),)),
        overwrite=True,
    )
    out = str(tmp_path)
    code = lab_main(
        [
            "run", "cli-engine-suite", "--engine", "both", "--timings",
            "--out", out, "--no-cache", "--quiet",
        ]
    )
    assert code == 0
    payload = json.load(open(os.path.join(out, ARTIFACT_FILENAME)))
    engines = [s["spec"]["engine"] for s in payload["scenarios"]]
    assert engines == ["generator", "compiled"]
    assert "timings" in payload
    # One line: both engines' rounds, the compiled engine's jumps.
    generator, compiled = payload["scenarios"]
    simulated = generator["measured_rounds"] + compiled["measured_rounds"]
    jumped = compiled["observability"]["engine.fast_forward_rounds"]
    assert "engine.fast_forward_rounds" not in generator["observability"]
    timed = capsys.readouterr().out
    assert (
        f"engine rounds: {simulated} simulated, {simulated - jumped} "
        f"stepped, {jumped} fast-forwarded"
    ) in timed
    # The planning ledger rides on --timings alone: the second plane
    # hits the packing memo, so the line describes one identity's scans.
    steiner = re.search(
        r"^steiner: (\d+) packings, (\d+) states expanded, (\d+) shared$",
        timed, re.MULTILINE,
    )
    packings, expanded, shared = map(int, steiner.groups())
    assert packings > 0 and expanded > 0 and shared >= 0
    assert lab_main(
        ["run", "cli-engine-suite", "--engine", "both", "--out", out,
         "--no-cache", "--quiet"]
    ) == 0
    plain = capsys.readouterr().out
    assert "steiner:" not in plain and "engine rounds:" not in plain
    untimed = json.load(open(os.path.join(out, ARTIFACT_FILENAME)))
    assert untimed["scenarios"] == payload["scenarios"]
    assert not any(
        name.startswith("steiner.")
        for record in untimed["scenarios"]
        for name in record["observability"]
    )


# ---------------------------------------------------------------------------
# The FAQ-solver axis
# ---------------------------------------------------------------------------


def test_spec_solver_axis_validated_and_hashed():
    assert tiny_spec().solver == "operator"
    compiled = tiny_spec(solver="compiled")
    assert compiled.content_hash() != tiny_spec().content_hash()
    assert "compiled" in compiled.label
    with pytest.raises(ValueError, match="solver"):
        tiny_spec(solver="jit")


def test_with_solvers_pairs_every_scenario():
    from repro.lab.suites import with_solvers

    paired = with_solvers(tiny_suite(), "paired", "desc")
    assert len(paired) == 2 * len(tiny_suite())
    solvers = [s.solver for s in paired.scenarios]
    assert solvers[:2] == ["operator", "compiled"]
    assert paired.scenarios[0].with_(solver="compiled") == paired.scenarios[1]


def test_solver_suites_registered():
    names = suite_names()
    assert "solver-scaling" in names
    assert "solver-compare" in names
    assert "solver-smoke" in names
    compare = get_suite("solver-compare")
    assert len(compare) == 2 * len(get_suite("solver-scaling"))
    solvers = {s.solver for s in compare.scenarios}
    assert solvers == {"operator", "compiled"}


def test_execute_scenario_solver_parity_and_wall_clock():
    op = execute_scenario(tiny_spec())
    comp = execute_scenario(tiny_spec(solver="compiled"))
    assert comp.answer_digest == op.answer_digest
    assert comp.measured_rounds == op.measured_rounds
    assert comp.total_bits == op.total_bits
    assert op.solver_wall_time > 0.0
    assert comp.solver_wall_time > 0.0


def test_solver_parity_failures_detect_mismatch():
    from repro.lab.report import axis_pairs, parity_failures

    op = execute_scenario(tiny_spec()).deterministic_record()
    comp = execute_scenario(tiny_spec(solver="compiled")).deterministic_record()
    assert len(axis_pairs([op, comp], "solver")) == 1
    assert parity_failures([op, comp], "solver") == []
    # Engine pairing must NOT pair records differing in solver.
    assert parity_failures([op, comp], "engine") == []
    tampered = dict(comp)
    tampered["answer_digest"] = "0" * 64
    failures = parity_failures([op, tampered], "solver")
    assert len(failures) == 1 and "answer_digest" in failures[0]


def test_timings_payload_has_solver_pairs(tmp_path):
    from repro.lab.report import artifact_payload
    from repro.lab.suites import with_solvers

    suite = with_solvers(tiny_suite("solver-timed"), "solver-timed", "desc")
    run = run_suite(suite)
    payload = artifact_payload(run, timings=True)
    pairs = payload["timings"]["solver_pairs"]
    assert len(pairs) == len(tiny_suite())
    assert pairs[0]["operator_solver_s"] > 0
    assert pairs[0]["compiled_solver_s"] > 0
    assert payload["timings"]["solver_headline"]["rows"] >= 1
    for scenario in payload["timings"]["scenarios"]:
        assert "solver_wall_time" in scenario


def test_cli_solver_override(tmp_path, capsys):
    register_suite(
        "cli-solver-suite",
        lambda: SuiteSpec(name="cli-solver-suite", scenarios=(tiny_spec(),)),
        overwrite=True,
    )
    out = str(tmp_path)
    code = lab_main(
        [
            "run", "cli-solver-suite", "--solver", "both", "--timings",
            "--out", out, "--no-cache", "--quiet",
        ]
    )
    assert code == 0
    artifact = os.path.join(out, ARTIFACT_FILENAME)
    payload = json.load(open(artifact))
    solvers = [s["spec"]["solver"] for s in payload["scenarios"]]
    assert solvers == ["operator", "compiled"]
    assert lab_main(["parity", artifact]) == 0
    assert "solver pair(s)" in capsys.readouterr().out


def test_plan_cache_hits_across_lab_grid_sweep(monkeypatch):
    """A grid sweep varying only seed/N resolves each structure's order
    once, and a second pass over the same specs, the cache still warm,
    is served from it entirely."""
    from repro.faq import PLAN_CACHE
    from repro.faq import plan
    from repro.obs.counters import COUNTERS, counter_delta

    keys = []
    order_key = plan._order_key

    def spy(query, order):
        key = order_key(query, order)
        keys.append(key)
        return key

    monkeypatch.setattr(plan, "_order_key", spy)

    suite = SuiteSpec(
        name="plan-cache-grid",
        scenarios=expand_grid(
            dict(
                family="bcq-degenerate",
                query="degenerate",
                query_params={"vertices": 4, "d": 1},
                topology="clique",
                topology_params={"n": 3},
                domain_size=8,
                seed=11,
                solver="compiled",
            ),
            n=[8, 12, 16],
        ),
    )
    run_suite(suite)  # jobs=1: everything executes in this process
    cacheable = [key for key in keys if key is not None]
    structures = set(cacheable)
    # Fewer structures than lookups: the n values share their orders.
    assert 0 < len(structures) < len(cacheable)
    assert PLAN_CACHE.stats.misses == len(structures)
    assert PLAN_CACHE.stats.hits == len(cacheable) - len(structures)

    # No clear in between: every lookup of the second pass hits.
    misses, hits = PLAN_CACHE.stats.misses, PLAN_CACHE.stats.hits
    before = COUNTERS.snapshot()
    for spec in suite.scenarios:
        execute_scenario(spec)
    lookups = counter_delta(before, COUNTERS.snapshot())["plan_cache.lookups"]
    assert lookups > 0
    assert PLAN_CACHE.stats.misses == misses
    assert PLAN_CACHE.stats.hits == hits + lookups


# ---------------------------------------------------------------------------
# Bound certification (the fuzzed scenario plane's oracle)
# ---------------------------------------------------------------------------


def test_result_records_carry_certification_fields():
    record = execute_scenario(tiny_spec()).deterministic_record()
    for field in (
        "lower_certified", "formula_certified", "tribes_bits_floor",
        "bound_ok", "cut_bits", "cut_size", "cut_ok",
    ):
        assert field in record
    assert record["bound_ok"] is True
    rebuilt = ScenarioResult.from_record(record)
    assert rebuilt.deterministic_record() == record


def test_from_record_requires_every_field():
    """Records are read only under the current schema (the cache drops
    rows of any other), so a missing field is an error, never a
    default."""
    record = execute_scenario(tiny_spec()).deterministic_record()
    for field in ("bound_ok", "cut_ok", "cost_model", "observability"):
        partial = {k: v for k, v in record.items() if k != field}
        with pytest.raises(KeyError, match=field):
            ScenarioResult.from_record(partial)


def test_aggregate_counts_bound_violations_and_gap_min():
    results = run_suite(tiny_suite()).results
    aggs = {a.family: a for a in aggregate(results)}
    for agg in aggs.values():
        assert agg.bound_violations == 0
        record = agg.to_record()
        assert record["bound_violations"] == 0
        assert "gap_min" in record
    lined = aggs["faq-line"]
    assert lined.gap_min is not None
    assert lined.gap_min <= lined.gap_max


def test_worst_case_table1_scenario_is_formula_certified():
    """The table1 rows ARE the paper's hard instances: the formula lower
    bound is certified on them."""
    suite = get_suite("table1-line")
    result = execute_scenario(suite.scenarios[0])
    assert result.formula_certified
    assert result.tribes_bits_floor > 0
    assert result.cut_bits >= result.tribes_bits_floor
    assert result.bound_ok
    assert result.cut_size >= 1
