"""Coverage for :mod:`repro.lab.report` and :mod:`repro.lab.__main__`.

Golden-file tests pin the rendered markdown/CSV surfaces (the one
volatile token — the coordinator wall time — is normalized before the
comparison; everything else in a report is deterministic by the lab's
serial-equals-parallel guarantee), and the CLI tests pin the exit-code
contract: 0 on a clean suite, 1 on bound violations, parity breaks or
cost-model mismatches, and the ``predict`` artifact cross-check.

Also here: the cache volatile-field / schema-bump tests — a cache hit
must be byte-equivalent to a fresh run regardless of wall-clock fields,
and rows written under an older result schema must be skipped cleanly,
never half-parsed into a KeyError.
"""

import json
import os
import re

import pytest

from repro.lab import ResultCache, ScenarioSpec, SuiteSpec, run_suite
from repro.lab.__main__ import main as lab_main
from repro.lab.cache import CACHE_FILENAME
from repro.lab.report import (
    artifact_bytes,
    bound_violations,
    cost_mismatches,
    cost_model_payload,
    format_cost_table,
    render_csv,
    render_markdown,
)
from repro.lab.results import RESULT_SCHEMA, ScenarioResult
from repro.lab.suites import register_suite

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_spec(**overrides):
    base = dict(
        family="golden-star",
        query="hard-star",
        query_params={"arms": 3},
        topology="line",
        topology_params={"n": 3},
        n=12,
        assignment="worst-case",
        seed=23,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def golden_suite():
    return SuiteSpec(
        name="golden",
        scenarios=(
            golden_spec(),
            golden_spec(engine="compiled"),
            golden_spec(
                family="golden-tree",
                query="tree",
                query_params={"vertices": 5},
                topology="star",
                topology_params={"leaves": 3},
                n=8,
                domain_size=4,
                semiring="counting",
                assignment="round-robin",
            ),
        ),
        description="golden-file fixture suite",
    )


def _normalize(text: str) -> str:
    """Mask the only volatile token (coordinator wall time)."""
    return re.sub(r"in \d+\.\d+s", "in X.XXs", text)


def _golden_compare(name: str, rendered: str):
    path = os.path.join(GOLDEN_DIR, name)
    with open(path, "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert _normalize(rendered) == expected, (
        f"{name} drifted from the golden file; if the change is "
        f"intentional, regenerate tests/golden/ (see its README)"
    )


def test_markdown_report_matches_golden():
    run = run_suite(golden_suite())
    _golden_compare("LAB_golden.md", render_markdown(run))


def test_csv_report_matches_golden():
    run = run_suite(golden_suite())
    _golden_compare("LAB_golden.csv", render_csv(run.results))


def test_markdown_lists_cost_mismatches():
    run = run_suite(golden_suite())
    records = [r.deterministic_record() for r in run.results]
    records[0]["cost_model"]["exact_match"] = False
    records[0]["cost_model"]["predicted"]["rounds"] += 1
    text = render_markdown(run, records=records)
    assert "### Cost mismatches" in text
    assert "rounds predicted=" in text


# ---------------------------------------------------------------------------
# report.py violation / mismatch classifiers
# ---------------------------------------------------------------------------


def _records():
    run = run_suite(golden_suite())
    return [r.deterministic_record() for r in run.results]


def test_bound_violations_on_tampered_record():
    records = _records()
    assert bound_violations(records) == []
    records[0]["bound_ok"] = False
    records[0]["cut_ok"] = False
    (violation,) = bound_violations(records)
    assert "cut accounting broke" in violation


def test_cost_mismatches_flag_every_disagreement():
    records = _records()
    assert cost_mismatches(records) == []
    # A mismatch names the metric and both values.
    records[1]["cost_model"]["exact_match"] = False
    records[1]["cost_model"]["predicted"]["total_bits"] = 1
    (failure,) = cost_mismatches(records)
    assert "total_bits predicted=1" in failure
    # A prediction *failure* surfaces its error note.
    records[2]["cost_model"].update(
        {"exact_match": False, "predicted": None, "error": "model choked"}
    )
    assert any("model choked" in f for f in cost_mismatches(records))


def test_cost_model_payload_counts_and_cells():
    records = _records()
    assert cost_model_payload(records) == {
        "runs": 3, "exact_matches": 3, "mismatches": [],
    }
    records[0]["cost_model"]["exact_match"] = False
    assert cost_model_payload(records)["exact_matches"] == 2
    table = format_cost_table(records)
    assert "golden-star" in table and "golden-tree" in table


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


def test_cli_run_exits_nonzero_on_cost_mismatch(tmp_path, capsys, monkeypatch):
    from repro.costmodel import CostModelError

    def broken_predict(spec, plan=None, nodes=None, query=None):
        raise CostModelError("deliberately broken for the exit-code test")

    monkeypatch.setattr("repro.costmodel.predict_costs", broken_predict)
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(
        ["run", "golden", "--out", str(tmp_path), "--no-cache", "--quiet"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "COST MISMATCHES (3)" in out
    assert "deliberately broken" in out
    # A model that raises is a mismatch in the record too, never a
    # "not priced" None.
    artifact = json.load(open(os.path.join(tmp_path, "BENCH_lab.json")))
    for record in artifact["scenarios"]:
        block = record["cost_model"]
        assert block["exact_match"] is False and block["predicted"] is None
        assert "deliberately broken" in block["error"]


def test_cli_run_clean_suite_reports_cost_plane(tmp_path, capsys):
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(
        ["run", "golden", "--out", str(tmp_path), "--no-cache", "--quiet"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cost model: 3 runs priced, 3 exact" in out
    artifact = json.load(open(os.path.join(tmp_path, "BENCH_lab.json")))
    assert artifact["cost_model"]["exact_matches"] == 3
    assert artifact["cost_model"]["mismatches"] == []


def test_cli_predict_cross_checks_artifact(tmp_path, capsys):
    register_suite("golden", golden_suite, overwrite=True)
    out = str(tmp_path)
    assert lab_main(["run", "golden", "--out", out, "--no-cache",
                     "--quiet"]) == 0
    capsys.readouterr()
    artifact = os.path.join(out, "BENCH_lab.json")

    # Consistent artifact: every row reproduced, exit 0.
    code = lab_main(
        ["predict", "golden", "--artifact", artifact, "--symbolic"]
    )
    printed = capsys.readouterr().out
    assert code == 0
    assert "two_party_route_rounds" in printed  # --symbolic kernel table
    assert "3 scenario(s) matched" in printed
    assert "0 mismatch(es)" in printed

    # Tampered artifact: recorded measurement no longer reproducible.
    payload = json.load(open(artifact))
    payload["scenarios"][0]["cost_model"]["measured"]["rounds"] += 5
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    code = lab_main(["predict", "golden", "--artifact", artifact])
    printed = capsys.readouterr().out
    assert code == 1
    assert "COST MISMATCHES (1)" in printed

    # Disjoint artifact (wrong suite): no overlap is itself a failure.
    for record in payload["scenarios"]:
        record["spec_hash"] = "0" * 64
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    code = lab_main(["predict", "golden", "--artifact", artifact])
    printed = capsys.readouterr().out
    assert code == 1
    assert "NO OVERLAP" in printed


def test_cli_predict_without_artifact_prices_suite(capsys):
    register_suite("golden", golden_suite, overwrite=True)
    code = lab_main(["predict", "golden"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "suite 'golden': 3 scenarios priced" in printed
    # The recurrence's ledger (zeros when the prediction memo is warm).
    priced, stepped, jumped, steps = map(int, re.search(
        r"timing recurrence: (\d+) round\(s\) priced, (\d+) stepped, "
        r"(\d+) fast-forwarded, (\d+) stream step\(s\)", printed,
    ).groups())
    assert priced == stepped + jumped
    assert steps >= 0


# ---------------------------------------------------------------------------
# Cache: volatile-field insensitivity + schema-bump invalidation
# ---------------------------------------------------------------------------


def test_cache_hit_is_insensitive_to_volatile_timing_fields(tmp_path):
    suite = SuiteSpec("one", (golden_spec(),))
    cache = ResultCache(str(tmp_path))
    fresh = run_suite(suite, cache=cache)
    (result,) = fresh.results
    # Volatile fields vary run to run; the deterministic record — and
    # therefore the cache key-value pair and the artifact — must not.
    noisy = ScenarioResult(
        **{**result.__dict__, "wall_time": 123.4,
           "protocol_wall_time": 55.5, "solver_wall_time": 66.6}
    )
    assert noisy.deterministic_record() == result.deterministic_record()

    cached = run_suite(suite, cache=ResultCache(str(tmp_path)))
    assert cached.cache_hits == 1
    assert cached.results[0].cached is True
    assert cached.results[0].wall_time == 0.0
    assert cached.results[0].solver_wall_time == 0.0
    assert artifact_bytes(fresh) == artifact_bytes(cached)


def test_schema_bump_invalidates_cache_without_keyerror(tmp_path):
    suite = SuiteSpec("one", (golden_spec(),))
    cache = ResultCache(str(tmp_path))
    run_suite(suite, cache=cache)

    # Rewrite the JSONL as if produced by an older lab: previous schema
    # tag, record missing every v4 field (e.g. cost_model).
    path = os.path.join(str(tmp_path), CACHE_FILENAME)
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.loads(fh.readline())
    entry["schema"] = "repro.lab/result.v3"
    entry["record"].pop("cost_model")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")

    stale = ResultCache(str(tmp_path))
    assert len(stale) == 0
    assert stale.skipped_lines == 1
    # The stale row degrades to a miss: the suite re-executes cleanly
    # (no KeyError on the old record) and repopulates under v4.
    rerun = run_suite(suite, cache=stale)
    assert rerun.cache_hits == 0
    assert rerun.executed == 1
    assert rerun.results[0].cost_model["exact_match"] is True
    assert ResultCache(str(tmp_path)).get(
        golden_spec().content_hash()
    )["schema"] == RESULT_SCHEMA
