"""Rendering and artifacts: Table-1-style tables, markdown/CSV, BENCH JSON.

The scenario table reuses :func:`repro.core.analysis.format_table`
verbatim — the lab's results *are* Table 1 rows, just persisted.  The
artifact (:data:`ARTIFACT_FILENAME`, ``BENCH_lab.json``) contains only
the deterministic payload (scenario records in suite order + family
aggregates), serialized with sorted keys — which is what makes a
parallel run byte-identical to a serial one, and lets later PRs diff two
artifacts for perf/correctness regressions.  Volatile numbers (wall
times, cache hit rates) go to stdout, never into the artifact.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Dict, List, Optional, Sequence

from ..core.analysis import format_table
from ..core.memo import memo_stats
from ..costmodel.model import COST_METRIC_NAMES
from ..obs.counters import DETERMINISTIC_COUNTERS
from ..pipeline import PLANE_AXES
from .results import FamilyAggregate, ScenarioResult, aggregate
from .runner import SuiteRun

#: The bench artifact the CI job uploads.
ARTIFACT_FILENAME = "BENCH_lab.json"

#: Artifact schema id; bump on breaking payload changes.
#: v2: scenario records carry bound-certification fields and the payload
#: gains a top-level ``certification`` block.
#: v3: scenario records carry ``cost_model`` blocks and the payload
#: gains a top-level ``cost_model`` block (symbolic cost-plane oracle).
#: v4: scenario records carry ``observability`` counter blocks and the
#: payload gains a top-level ``observability`` block (deterministic
#: kernel / engine / dictionary-pool counter aggregation).
#: v5: specs carry the ``kernels`` axis (numpy/jit hot-kernel tier), the
#: counter whitelist grows the kernel/batch dispatch tags, and the
#: payload gains a top-level ``throughput`` block (scenarios/sec for the
#: per-scenario and batched execution paths).
#: v6: the ``throughput`` block is gone (``--batch`` is ``run_suite``
#: plus a stacked cross-check; it writes the same payload as any run).
#: v7: the counter whitelist loses the compiled engine's batched-round
#: tag (it charges every round one way) and the two ``batch.*`` tags
#: (constant 0 in every record).
#: v8: every run is priced: records lose ``cost_model.cell`` and the
#: ``cost_model`` block loses its coverage counts and cell lists.
ARTIFACT_SCHEMA = "repro.lab/bench.v8"


def format_results_table(results: Sequence[ScenarioResult]) -> str:
    """The paper's Table 1 layout over lab results."""
    return format_table([r.to_table1_row() for r in results])


def format_aggregate_table(aggregates: Sequence[FamilyAggregate]) -> str:
    """Per-family summary block (median/p90/max rounds and gap)."""
    header = (
        f"{'family':<18} {'runs':>4} {'ok':>4} {'rounds p50':>10} "
        f"{'p90':>10} {'max':>10} {'gap p50':>8} {'p90':>8} {'max':>8}"
    )
    lines = [header, "-" * len(header)]
    for agg in aggregates:
        gap_fmt = lambda g: f"{g:>8.2f}" if g is not None else f"{'-':>8}"
        lines.append(
            f"{agg.family:<18} {agg.scenarios:>4} {agg.correct:>4} "
            f"{agg.rounds_median:>10.1f} {agg.rounds_p90:>10.1f} "
            f"{agg.rounds_max:>10} {gap_fmt(agg.gap_median)} "
            f"{gap_fmt(agg.gap_p90)} {gap_fmt(agg.gap_max)}"
        )
    return "\n".join(lines)


def render_markdown(
    run: SuiteRun, records: Optional[List[Dict[str, Any]]] = None
) -> str:
    """A self-contained markdown report for a suite run.

    Pass precomputed deterministic ``records`` (suite order) to reuse
    them; otherwise they are derived here.
    """
    aggregates = aggregate(run.results)
    lines = [
        f"# repro.lab suite `{run.suite.name}`",
        "",
        f"{len(run.results)} scenarios across {len(run.suite.families)} "
        f"families; {run.cache_hits} cached, {run.executed} executed "
        f"on {run.jobs} job(s) in {run.wall_time:.2f}s.",
        "",
        "| scenario | topology | engine | solver | N | rounds | bits "
        "| upper | lower | gap | budget | ok |",
        "|---|---|---|---|---:|---:|---:|---:|---:|---:|---:|:-:|",
    ]
    for r in run.results:
        gap = f"{r.gap:.2f}" if r.gap is not None else "-"
        lines.append(
            f"| `{r.query_name}` | {r.topology_name} | {r.spec.engine} "
            f"| {r.spec.solver} "
            f"| {r.rows} | {r.measured_rounds} | {r.total_bits} "
            f"| {r.upper_formula:.1f} "
            f"| {r.lower_formula:.1f} | {gap} | {r.gap_budget:.1f} "
            f"| {'ok' if r.correct else 'FAIL'} |"
        )
    lines += [
        "",
        "| family | runs | ok | rounds p50 | rounds p90 | rounds max "
        "| gap p50 | gap p90 | gap max |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for agg in aggregates:
        fmt = lambda g: f"{g:.2f}" if g is not None else "-"
        lines.append(
            f"| {agg.family} | {agg.scenarios} | {agg.correct} "
            f"| {agg.rounds_median:.1f} | {agg.rounds_p90:.1f} "
            f"| {agg.rounds_max} | {fmt(agg.gap_median)} "
            f"| {fmt(agg.gap_p90)} | {fmt(agg.gap_max)} |"
        )
    if records is None:
        records = [r.deterministic_record() for r in run.results]
    cert = certification_payload(records)
    lines += [
        "",
        "## Bound certification",
        "",
        f"{cert['scenarios_checked']} scenarios checked: "
        f"{cert['formula_certified']} against the TRIBES bits floor, "
        f"{cert['cut_checked']} against the cut-accounting bound; "
        f"{len(cert['bound_violations'])} violation(s).",
        "",
        "```",
        format_certification_table(records),
        "```",
    ]
    if cert["bound_violations"]:
        lines += ["", "### Violations", ""]
        lines += [f"- {v}" for v in cert["bound_violations"]]
    cost = cost_model_payload(records)
    lines += [
        "",
        "## Symbolic cost model",
        "",
        f"{cost['runs']} runs priced; "
        f"{cost['exact_matches']} exact on all four metrics; "
        f"{len(cost['mismatches'])} mismatch(es).",
        "",
        "```",
        format_cost_table(records),
        "```",
    ]
    if cost["mismatches"]:
        lines += ["", "### Cost mismatches", ""]
        lines += [f"- {m}" for m in cost["mismatches"]]
    obs = observability_payload(records)
    lines += [
        "",
        "## Observability",
        "",
        f"{obs['instrumented_runs']}/{obs['runs']} runs carry "
        f"deterministic counter blocks.",
        "",
        "```",
        format_observability_table(records),
        "```",
    ]
    return "\n".join(lines) + "\n"


def render_csv(results: Sequence[ScenarioResult]) -> str:
    """Flat per-scenario CSV (one row per scenario, suite order)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "family", "query", "topology", "backend", "assignment",
            "engine", "solver", "kernels", "semiring", "n", "seed",
            "players", "d",
            "r", "rows", "measured_rounds", "total_bits",
            "link_utilization", "upper_formula", "lower_formula",
            "gap", "gap_budget", "lower_certified", "formula_certified",
            "tribes_bits_floor", "bound_ok", "cut_bits", "cut_size",
            "correct", "cost_exact",
            *[name.replace(".", "_") for name in DETERMINISTIC_COUNTERS],
            "spec_hash",
        ]
    )
    for r in results:
        obs = r.observability or {}
        writer.writerow(
            [
                r.spec.family, r.query_name, r.topology_name,
                r.spec.backend or "native", r.spec.assignment,
                r.spec.engine, r.spec.solver, r.spec.kernels,
                r.spec.semiring, r.spec.n,
                r.spec.seed, r.players, r.d, r.r, r.rows,
                r.measured_rounds, r.total_bits, r.link_utilization,
                r.upper_formula, r.lower_formula,
                "" if r.gap is None else r.gap,
                r.gap_budget, r.lower_certified,
                int(r.formula_certified), r.tribes_bits_floor,
                int(r.bound_ok), r.cut_bits, r.cut_size,
                int(r.correct), int(r.cost_model["exact_match"]),
                *[int(obs.get(name, 0)) for name in DETERMINISTIC_COUNTERS],
                r.spec_hash,
            ]
        )
    return buf.getvalue()


def _pair_key(spec_record: Dict[str, Any], axis: str = "engine") -> str:
    """A scenario's identity with one comparison axis erased."""
    stripped = {k: v for k, v in spec_record.items() if k != axis}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":"))


def axis_pairs(
    records: Sequence[Dict[str, Any]], axis: str
) -> List[Dict[str, Dict[str, Any]]]:
    """Group scenario records that differ only in ``spec.<axis>``.

    Returns one ``{axis_value: record}`` dict per scenario identity that
    was run on more than one value of the axis (suite order of first
    appearance).  ``axis`` is one of :data:`PARITY_AXES`.
    """
    groups: Dict[str, Dict[str, Dict[str, Any]]] = {}
    order: List[str] = []
    for record in records:
        key = _pair_key(record["spec"], axis)
        if key not in groups:
            groups[key] = {}
            order.append(key)
        groups[key][record["spec"][axis]] = record
    return [groups[key] for key in order if len(groups[key]) > 1]


#: The three differential axes every fuzzed scenario is swept across.
PARITY_AXES = PLANE_AXES


def all_parity_failures(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Parity violations across every axis in :data:`PARITY_AXES`."""
    failures: List[str] = []
    for axis in PARITY_AXES:
        failures.extend(
            f"[{axis}] {message}"
            for message in parity_failures(records, axis)
        )
    return failures


def bound_violations(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Lower-bound certification violations among scenario records.

    A record violates when its certification oracle failed
    (``bound_ok`` False): the Lemma 4.4 cut accounting identity broke
    (``cut_ok`` False — equivalently the run undercut its certified
    round lower bound), or a TRIBES-embedded worst-case run pushed
    fewer bits across the min cut than the embedded instance's content
    (``cut_bits < tribes_bits_floor``).  The list must be empty on
    every suite; any entry is a bug in a bound formula, an engine's
    round/bit accounting, or the simulator.
    """
    violations: List[str] = []
    for record in records:
        if record["bound_ok"]:
            continue
        if not record["cut_ok"]:
            reason = (
                f"cut accounting broke: {record['cut_bits']} bits "
                f"crossed a cut of {record['cut_size']} edges in "
                f"{record['measured_rounds']} rounds"
            )
        elif record["cut_bits"] < record["tribes_bits_floor"]:
            reason = (
                f"only {record['cut_bits']} bits crossed the cut < "
                f"TRIBES floor {record['tribes_bits_floor']}"
            )
        else:
            # Fallback for tampered/inconsistent records: flagged but
            # neither conjunct reproduces from the recorded numbers.
            reason = (
                f"flagged bound_ok=False (measured "
                f"{record['measured_rounds']} rounds, certified lower "
                f"{record['lower_certified']})"
            )
        violations.append(f"{record['label']}: {reason}")
    return violations


def certification_payload(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The certification block of the bench artifact.

    Deterministic (pure function of the scenario records): how many
    scenarios each oracle covered, the violation list (must be empty),
    and the per-family gap envelope of the formula-certified scenarios.
    """
    violations = bound_violations(records)
    formula = [r for r in records if r["formula_certified"]]
    families: Dict[str, Dict[str, Any]] = {}
    for record in formula:
        fam = families.setdefault(
            record["family"],
            {"scenarios": 0, "gap_min": None, "gap_max": None},
        )
        fam["scenarios"] += 1
        gap = record["gap"]
        if gap is not None:
            fam["gap_min"] = gap if fam["gap_min"] is None else min(fam["gap_min"], gap)
            fam["gap_max"] = gap if fam["gap_max"] is None else max(fam["gap_max"], gap)
    return {
        "scenarios_checked": len(records),
        "formula_certified": len(formula),
        "cut_checked": sum(1 for r in records if r["cut_size"] > 0),
        "bound_violations": violations,
        "formula_families": families,
    }


def format_certification_table(records: Sequence[Dict[str, Any]]) -> str:
    """The human-readable certification summary block.

    One row per family: scenario count, how many were formula-certified
    vs cut-certified, the tightest margin (measured rounds over the
    certified lower bound), and the violation count.
    """
    by_family: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_family.setdefault(record["family"], []).append(record)
    header = (
        f"{'family':<18} {'runs':>4} {'formula':>7} {'cut':>5} "
        f"{'margin':>8} {'violations':>10}"
    )
    lines = [header, "-" * len(header)]
    for family, group in by_family.items():
        margins = [
            record["measured_rounds"] - record["lower_certified"]
            for record in group
        ]
        lines.append(
            f"{family:<18} {len(group):>4} "
            f"{sum(1 for r in group if r['formula_certified']):>7} "
            f"{sum(1 for r in group if r['cut_size'] > 0):>5} "
            f"{min(margins):>8.1f} "
            f"{sum(1 for r in group if not r['bound_ok']):>10}"
        )
    return "\n".join(lines)


#: The four metrics the cost model must predict exactly on every run.
COST_METRICS = COST_METRIC_NAMES


def cost_mismatches(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Cost-plane oracle violations among scenario records.

    A record violates when the symbolic prediction disagreed with the
    measured run on any of the four metrics, or the model raised
    (``exact_match`` False either way).  The list must be empty on every
    suite; any entry means either a cost formula is wrong or an engine's
    accounting drifted.
    """
    failures: List[str] = []
    for record in records:
        block = record["cost_model"]
        if block["exact_match"]:
            continue
        predicted, measured = block["predicted"], block["measured"]
        if predicted is None:
            detail = block["error"]
        else:
            diffs = [
                f"{metric} predicted={predicted[metric]!r} "
                f"measured={measured[metric]!r}"
                for metric in COST_METRICS
                if predicted[metric] != measured[metric]
            ]
            detail = "; ".join(diffs) or "metrics differ"
        failures.append(f"{record['label']}: {detail}")
    return failures


def cost_model_payload(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The cost-model block of the bench artifact.

    Deterministic (pure function of the scenario records): the run
    count, the exact-match tally and the mismatch list (must be empty).
    """
    return {
        "runs": len(records),
        "exact_matches": sum(
            1 for r in records if r["cost_model"]["exact_match"]
        ),
        "mismatches": cost_mismatches(records),
    }


def format_cost_table(records: Sequence[Dict[str, Any]]) -> str:
    """The human-readable cost-model summary block.

    One row per family: run count, how many runs matched exactly on all
    four metrics, and the mismatch count.
    """
    by_family: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_family.setdefault(record["family"], []).append(record)
    header = f"{'family':<18} {'runs':>4} {'exact':>5} {'mismatch':>8}"
    lines = [header, "-" * len(header)]
    for family, group in by_family.items():
        exact = sum(1 for r in group if r["cost_model"]["exact_match"])
        lines.append(
            f"{family:<18} {len(group):>4} {exact:>5} "
            f"{len(group) - exact:>8}"
        )
    return "\n".join(lines)


def observability_payload(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The observability block of the bench artifact.

    Deterministic (pure function of the scenario records): for each
    whitelisted counter (:data:`~repro.obs.counters
    .DETERMINISTIC_COUNTERS`) the total across all scenarios and the
    number of scenarios where it fired at all.  Volatile counters
    (plan-cache hit/miss) never appear — they depend on process warmth,
    which would break the serial-vs-parallel byte-identity guarantee.
    """
    blocks = [r.get("observability") for r in records]
    blocks = [b for b in blocks if b is not None]
    counters: Dict[str, Dict[str, int]] = {}
    for name in DETERMINISTIC_COUNTERS:
        values = [int(b.get(name, 0)) for b in blocks]
        counters[name] = {
            "total": sum(values),
            "scenarios": sum(1 for v in values if v),
        }
    return {
        "runs": len(records),
        "instrumented_runs": len(blocks),
        "counters": counters,
    }


def format_observability_table(records: Sequence[Dict[str, Any]]) -> str:
    """The human-readable counter-catalog summary block.

    One row per deterministic counter: the total across the suite and
    how many scenarios incremented it at least once.
    """
    payload = observability_payload(records)
    header = f"{'counter':<28} {'total':>10} {'scenarios':>9}"
    lines = [header, "-" * len(header)]
    for name in DETERMINISTIC_COUNTERS:
        entry = payload["counters"][name]
        lines.append(
            f"{name:<28} {entry['total']:>10} {entry['scenarios']:>9}"
        )
    return "\n".join(lines)


def parity_failures(
    records: Sequence[Dict[str, Any]], axis: str = "engine"
) -> List[str]:
    """Parity violations among scenario records along one axis.

    For every pair differing only in ``spec.<axis>`` (protocol engine,
    FAQ solver or storage backend), the answer digest, round count and
    total bits must be exactly equal; any difference is a correctness
    bug on one side, never a tolerable deviation.
    """
    failures: List[str] = []
    for pair in axis_pairs(records, axis):
        # The backend axis includes None ("native"); sort it first.
        values = sorted(pair, key=lambda v: (v is not None, v or ""))
        baseline_value = values[0]
        baseline = pair[baseline_value]
        for value in values[1:]:
            other = pair[value]
            for field in ("answer_digest", "measured_rounds", "total_bits"):
                if baseline[field] != other[field]:
                    failures.append(
                        f"{other['label']}: {field} {other[field]!r} != "
                        f"{baseline_value}'s {baseline[field]!r}"
                    )
    return failures


def timings_payload(run: SuiteRun) -> Dict[str, Any]:
    """Wall-clock measurements for a suite run (volatile by nature).

    Never part of the deterministic artifact payload; included only on
    request (``--timings``) under a separate key.  Pairs divide the wall
    time of exactly the part their axis changes: engine pairs compare
    *protocol* wall times, solver pairs compare *reference-solve* wall
    times (instance generation and the bound formulas are harness work
    common to both sides).
    """
    scenarios = [
        {
            "label": r.spec.label,
            "engine": r.spec.engine,
            "solver": r.spec.solver,
            "wall_time": r.wall_time,
            "protocol_wall_time": r.protocol_wall_time,
            "solver_wall_time": r.solver_wall_time,
            "cached": r.cached,
        }
        for r in run.results
    ]
    engine_pairs_, engine_headline = _axis_timing_pairs(
        run.results, "engine", "generator", "protocol", "protocol_wall_time"
    )
    solver_pairs_, solver_headline = _axis_timing_pairs(
        run.results, "solver", "operator", "solver", "solver_wall_time"
    )
    return {
        "scenarios": scenarios,
        "engine_pairs": engine_pairs_,
        "headline": engine_headline,
        "solver_pairs": solver_pairs_,
        "solver_headline": solver_headline,
        # What each structural memo (the order cache among them) served
        # in this process since the run cleared them: hits / misses / size.
        "memos": memo_stats(),
    }


def _axis_timing_pairs(
    results: Sequence[ScenarioResult],
    axis: str,
    baseline: str,
    metric: str,
    time_attr: str,
):
    """Per-pair wall-time ratios along one axis, plus the max-rows headline.

    Pairs a ``baseline`` result with its ``"compiled"`` twin (the fast
    side of both axes), reading ``time_attr`` — the wall time of exactly
    the part the axis changes.  Keys follow the axis vocabulary:
    ``{baseline}_{metric}_s`` / ``compiled_{metric}_s`` /
    ``{metric}_speedup`` plus whole-scenario times.
    """
    by_key: Dict[str, Dict[str, ScenarioResult]] = {}
    for r in results:
        key = _pair_key(r.spec.to_json_dict(), axis)
        by_key.setdefault(key, {})[getattr(r.spec, axis)] = r
    pairs = []
    for group in by_key.values():
        base = group.get(baseline)
        comp = group.get("compiled")
        if base is None or comp is None or base.cached or comp.cached:
            continue
        base_t = getattr(base, time_attr)
        comp_t = getattr(comp, time_attr)
        pairs.append(
            {
                "label": comp.spec.with_(**{axis: baseline}).label,
                "rows": comp.rows,
                f"{baseline}_{metric}_s": base_t,
                f"compiled_{metric}_s": comp_t,
                f"{metric}_speedup": base_t / comp_t if comp_t > 0 else None,
                f"{baseline}_scenario_s": base.wall_time,
                "compiled_scenario_s": comp.wall_time,
            }
        )
    headline = None
    if pairs:
        largest = max(pairs, key=lambda p: p["rows"])
        headline = {
            "largest_scenario": largest["label"],
            "rows": largest["rows"],
            f"{metric}_speedup": largest[f"{metric}_speedup"],
        }
    return pairs, headline


def artifact_payload(run: SuiteRun, timings: bool = False) -> Dict[str, Any]:
    """The BENCH payload for a suite run.

    The default payload contains only reproducible data: identical for
    serial and parallel runs, for fresh and fully-cached runs.  With
    ``timings=True`` a volatile ``"timings"`` key is added (and the
    byte-for-byte reproducibility guarantee no longer applies to it).
    """
    aggregates = aggregate(run.results)
    records = [r.deterministic_record() for r in run.results]
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "suite": run.suite.name,
        "description": run.suite.description,
        "families": list(run.suite.families),
        "scenario_count": len(run.results),
        "all_correct": run.all_correct,
        "scenarios": records,
        "aggregates": [a.to_record() for a in aggregates],
        "certification": certification_payload(records),
        "cost_model": cost_model_payload(records),
        "observability": observability_payload(records),
    }
    if timings:
        payload["timings"] = timings_payload(run)
    return payload


def artifact_bytes(
    run: SuiteRun, timings: bool = False, payload: Optional[Dict[str, Any]] = None
) -> bytes:
    """Canonical serialization (sorted keys, fixed separators, UTF-8).

    Pass a precomputed ``payload`` (from :func:`artifact_payload`) to
    serialize it as-is — the CLI does this so records and certification
    are computed exactly once per run.
    """
    if payload is None:
        payload = artifact_payload(run, timings=timings)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def write_artifact(
    run: SuiteRun,
    out_dir: str,
    timings: bool = False,
    payload: Optional[Dict[str, Any]] = None,
) -> str:
    """Write ``BENCH_lab.json`` under ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, ARTIFACT_FILENAME)
    with open(path, "wb") as fh:
        fh.write(artifact_bytes(run, timings=timings, payload=payload))
    return path
