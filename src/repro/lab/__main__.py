"""CLI: ``python -m repro.lab run <suite> [--jobs N] [--out DIR]``.

Commands:

* ``run <suite>`` — execute a registered suite, print the Table-1-style
  scenario table, family aggregates and the bound-certification table,
  and write ``BENCH_lab.json`` (plus optional markdown/CSV) under
  ``--out``.  Exit code 1 when any scenario's protocol answer disagrees
  with the centralized solver, when any run violates its certified
  lower bound or (a Table 1 run) misses its row's gap budget, when any
  engine/solver/backend pair breaks parity, or when the symbolic cost
  model mispredicts any run.
  ``--engine generator|compiled`` overrides every scenario's protocol
  engine; ``--engine both`` runs each scenario on both engines (paired,
  for parity checks and speedup measurements).  ``--solver
  operator|compiled|both`` does the same for the FAQ solver axis.
  ``--timings`` adds a volatile wall-clock section (per-scenario times
  and per-pair engine/solver speedups) to the artifact and prints how
  many simulated rounds the engine stepped.  ``--seed N``
  regenerates a generated (fuzz) suite from master seed N.
* ``parity <BENCH_lab.json>`` — verify parity in an artifact: every pair
  of scenarios differing only in the protocol engine, only in the FAQ
  solver, or only in the storage backend must agree exactly on answer
  digest, round count and total bits.  Exit code 1 on any mismatch,
  2 when the artifact has another schema than this lab writes.
* ``predict <suite>`` — price every scenario of a suite symbolically
  (zero protocol execution): per-scenario rounds/bits/busiest-link
  estimates, and with ``--symbolic`` the kernel formula table.
  ``--artifact BENCH_lab.json`` cross-checks the prediction of every
  scenario in the artifact against the recorded measurements (exit 1 on
  any mismatch — the artifact-consistency oracle CI runs; exit 2 when
  the artifact has another schema).
* ``trace <suite> [--scenario LABEL]`` — execute one scenario of a suite
  with the protocol event tracer on, write the event stream as JSONL and
  as Chrome trace-event JSON (loadable at https://ui.perfetto.dev) under
  ``--out``, print the terminal round-by-round link-utilization
  timeline, and replay-verify the trace against the measured run (exit
  code 1 on any replay or cost-model mismatch).
* ``list`` — show the registered suites with sizes and descriptions.

A command line naming a suite or file that is not there (an unknown
suite, ``--seed`` on a fixed suite, a missing artifact) exits 2 with a
one-line message on stderr, like argparse's own usage errors.

Every subcommand takes ``--log-level debug|info|warning|error``
(default ``info``); ``run --trace`` additionally replay-verifies every
freshly-executed scenario's event stream in the workers and gates on the
verdicts like the certification planes.

Caching defaults to ``<out>/.lab_cache/results.jsonl``; re-runs are
incremental (only new/changed scenarios execute).  ``--no-cache``
disables it, ``--force`` ignores cache reads but still persists fresh
results.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from ..core.memo import memo_stats
from ..faq import SOLVERS
from ..obs.counters import (
    COSTMODEL_COUNTERS,
    COUNTERS,
    STEINER_COUNTERS,
    counter_delta,
)
from ..obs.logging import LOG_LEVELS, configure as configure_logging, get_logger
from ..protocols.faq_protocol import ENGINES
from .cache import ResultCache
from ..pipeline import plan_scenario, predicted_metrics
from .report import (
    ARTIFACT_SCHEMA,
    PARITY_AXES,
    all_parity_failures,
    artifact_payload,
    axis_pairs,
    format_aggregate_table,
    format_certification_table,
    format_cost_table,
    format_results_table,
    render_csv,
    render_markdown,
    write_artifact,
)
from .results import aggregate
from .runner import run_suite
from .spec import SuiteSpec
from .suites import get_suite, suite_names, with_axis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lab",
        description="Declarative scenario lab: run experiment suites "
        "through the distributed-FAQ pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default="info",
        help="logging verbosity for progress/diagnostic lines "
        "(default: info; result tables always print)",
    )

    run_p = sub.add_parser(
        "run", help="run a registered suite", parents=[common]
    )
    run_p.add_argument("suite", help=f"one of: {', '.join(suite_names())}")
    run_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial in-process)",
    )
    run_p.add_argument(
        "--out", default=".", metavar="DIR",
        help="output directory for BENCH_lab.json (default: cwd)",
    )
    run_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: <out>/.lab_cache)",
    )
    run_p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    run_p.add_argument(
        "--force", action="store_true",
        help="ignore cache reads (still writes fresh results)",
    )
    run_p.add_argument(
        "--markdown", action="store_true",
        help="also write <out>/LAB_<suite>.md",
    )
    run_p.add_argument(
        "--csv", action="store_true", help="also write <out>/LAB_<suite>.csv"
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress"
    )
    run_p.add_argument(
        "--engine", choices=list(ENGINES) + ["both"], default=None,
        help="override the protocol engine for every scenario "
        "('both' pairs each scenario across engines)",
    )
    run_p.add_argument(
        "--solver", choices=list(SOLVERS) + ["both"], default=None,
        help="override the FAQ solver for every scenario "
        "('both' pairs each scenario across solvers)",
    )
    run_p.add_argument(
        "--batch", action="store_true",
        help="after the run, group the freshly executed scenarios by "
        "structure and cross-check every group's answers with one "
        "stacked tensor solve (serial only)",
    )
    run_p.add_argument(
        "--timings", action="store_true",
        help="add a volatile wall-clock section (per-scenario times, "
        "per-pair engine/solver speedups) to BENCH_lab.json",
    )
    run_p.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="master seed for generated suites (fuzz*): regenerates the "
        "whole scenario stream deterministically from N",
    )
    run_p.add_argument(
        "--trace", action="store_true",
        help="record + replay-verify the protocol event stream of every "
        "freshly-executed scenario (exit 1 on any replay mismatch)",
    )

    parity_p = sub.add_parser(
        "parity", help="check engine parity in a BENCH_lab.json artifact",
        parents=[common],
    )
    parity_p.add_argument("artifact", help="path to BENCH_lab.json")

    predict_p = sub.add_parser(
        "predict",
        help="price a suite symbolically — zero protocol execution",
        parents=[common],
    )
    predict_p.add_argument(
        "suite", help=f"one of: {', '.join(suite_names())}"
    )
    predict_p.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="master seed for generated suites (fuzz*)",
    )
    predict_p.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="cross-check predictions against a BENCH_lab.json: every "
        "scenario's prediction must reproduce the recorded "
        "measurement exactly (exit 1 on any mismatch)",
    )
    predict_p.add_argument(
        "--symbolic", action="store_true",
        help="also print the per-primitive symbolic kernel table",
    )

    trace_p = sub.add_parser(
        "trace",
        help="trace one scenario: event stream, Perfetto export, "
        "terminal timeline, replay verification",
        parents=[common],
    )
    trace_p.add_argument(
        "suite", help=f"one of: {', '.join(suite_names())}"
    )
    trace_p.add_argument(
        "--scenario", default=None, metavar="LABEL",
        help="substring of the scenario label to trace "
        "(default: the suite's first scenario)",
    )
    trace_p.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="master seed for generated suites (fuzz*)",
    )
    trace_p.add_argument(
        "--out", default=".", metavar="DIR",
        help="output directory for TRACE_<scenario>.jsonl and "
        "TRACE_<scenario>.chrome.json (default: cwd)",
    )

    sub.add_parser("list", help="list registered suites", parents=[common])
    return parser


class _UsageError(Exception):
    """A command line naming a suite or file that is not there: ``main``
    prints the message on one line and exits 2."""


def _suite(args: argparse.Namespace) -> SuiteSpec:
    """The suite the command line names, re-seeded by ``--seed`` and
    swept or overridden by ``--engine`` / ``--solver``."""
    try:
        suite = get_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(exc) from None
    for axis in ("engine", "solver"):
        choice = getattr(args, axis, None)
        if choice == "both":
            suite = with_axis(
                suite, axis, suite.name, suite.description or suite.name
            )
        elif choice is not None:
            suite = SuiteSpec(
                name=suite.name,
                scenarios=tuple(s.with_(**{axis: choice}) for s in suite),
                description=suite.description,
            )
    return suite


def _cmd_list() -> int:
    for name in suite_names():
        suite = get_suite(name)
        print(f"{name:<20} {len(suite):>3} scenarios  {suite.description}")
    return 0


def _read_artifact(path: str) -> Optional[dict]:
    """The payload of an artifact this lab wrote, or None (after naming
    both schema ids) when it was written under another schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None
    if payload.get("schema") != ARTIFACT_SCHEMA:
        print(
            f"{path} has schema {payload.get('schema')!r}, this lab reads "
            f"{ARTIFACT_SCHEMA!r}; regenerate it with `run`"
        )
        return None
    return payload


def _cmd_parity(args: argparse.Namespace) -> int:
    payload = _read_artifact(args.artifact)
    if payload is None:
        return 2
    records = payload["scenarios"]
    pairs = {axis: len(axis_pairs(records, axis)) for axis in PARITY_AXES}
    if not any(pairs.values()):
        print(
            "no engine, solver or backend pairs in artifact (run a suite "
            "with --engine both / --solver both, or the "
            "backend-compare/fuzz suites)"
        )
        return 1
    failures = all_parity_failures(records)
    print(
        ", ".join(f"{count} {axis} pair(s)" for axis, count in pairs.items())
        + " checked"
    )
    if failures:
        print(f"PARITY FAILURES ({len(failures)}):", *failures, sep="\n  ")
        return 1
    print("parity OK: answer digests, rounds and bits all equal")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Symbolically price every scenario of a suite — zero execution.

    With ``--artifact``, every scenario present in the artifact must
    have its recorded measurement reproduced exactly by the prediction
    (all four metrics); exit 1 otherwise.
    """
    from ..costmodel import CostModelError, format_kernel_table

    suite = _suite(args)
    recorded = {}
    if args.artifact:
        payload = _read_artifact(args.artifact)
        if payload is None:
            return 2
        recorded = {
            record["spec_hash"]: record for record in payload["scenarios"]
        }

    if args.symbolic:
        print(format_kernel_table())
        print()

    mismatches: List[str] = []
    matched = 0
    priced_before = COUNTERS.snapshot()
    header = f"{'scenario':<52} {'rounds':>7} {'bits':>9} {'busiest':>7}"
    print(header)
    print("-" * len(header))
    for spec in suite:
        planner, plan = plan_scenario(spec)
        try:
            predicted = predicted_metrics(spec, plan, planner.topology.nodes)
        except CostModelError as exc:
            print(f"{spec.label:<52} PREDICTION FAILED: {exc}")
            mismatches.append(f"{spec.label}: {exc}")
            continue
        print(
            f"{spec.label:<52} {predicted['rounds']:>7} "
            f"{predicted['total_bits']:>9} "
            f"{predicted['max_edge_bits_per_round']:>7}"
        )
        record = recorded.get(spec.content_hash())
        if record is None:
            continue
        matched += 1
        measured = record["cost_model"]["measured"]
        diffs = [
            f"{metric} predicted={predicted[metric]!r} "
            f"recorded={measured[metric]!r}"
            for metric in measured
            if predicted[metric] != measured[metric]
        ]
        if diffs:
            mismatches.append(f"{spec.label}: " + "; ".join(diffs))

    print()
    print(f"suite {suite.name!r}: {len(suite)} scenarios priced")
    priced = counter_delta(priced_before, COUNTERS.snapshot())
    rounds, jumped, steps = (
        priced.get(name, 0) for name in COSTMODEL_COUNTERS
    )
    print(
        f"timing recurrence: {rounds} round(s) priced, "
        f"{rounds - jumped} stepped, {jumped} fast-forwarded, "
        f"{steps} stream step(s)"
    )
    if args.artifact:
        print(
            f"artifact cross-check: {matched} scenario(s) "
            f"matched against {args.artifact}, "
            f"{len(mismatches)} mismatch(es)"
        )
        if matched == 0:
            print(
                "NO OVERLAP with the artifact (wrong suite or --seed?)"
            )
            return 1
    if mismatches:
        print(
            f"COST MISMATCHES ({len(mismatches)}):", *mismatches,
            sep="\n  ",
        )
        return 1
    return 0


def _sanitize_label(label: str) -> str:
    """A filesystem-safe stand-in for a scenario label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one scenario end-to-end and replay-verify the event stream."""
    from ..obs.export import (
        events_to_chrome_trace,
        events_to_jsonl,
        format_timeline,
    )
    from .runner import record_scenario_trace

    logger = get_logger("lab")
    suite = _suite(args)
    specs = list(suite)
    if args.scenario is not None:
        matches = [s for s in specs if args.scenario in s.label]
        if not matches:
            print(
                f"no scenario of suite {suite.name!r} matches "
                f"{args.scenario!r}; labels:"
            )
            for s in specs:
                print(f"  {s.label}")
            return 1
        spec = matches[0]
    else:
        spec = specs[0]

    logger.info(f"[trace] {spec.label}")
    result, events = record_scenario_trace(spec)

    os.makedirs(args.out, exist_ok=True)
    base = _sanitize_label(spec.label)
    jsonl_path = os.path.join(args.out, f"TRACE_{base}.jsonl")
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        fh.write(events_to_jsonl(events))
    chrome_path = os.path.join(args.out, f"TRACE_{base}.chrome.json")
    with open(chrome_path, "w", encoding="utf-8") as fh:
        json.dump(events_to_chrome_trace(events), fh, sort_keys=True)
        fh.write("\n")

    print(format_timeline(events))
    print()
    trace = result.trace
    replayed = trace["replayed"]
    print(
        f"{trace['events']} events; replayed "
        f"rounds={replayed['rounds']} "
        f"total_bits={replayed['total_bits']} "
        f"busiest={replayed['max_edge_bits_per_round']}"
    )
    print(f"wrote {jsonl_path}")
    print(f"wrote {chrome_path}")
    mismatches = _trace_reasons(result)
    if mismatches:
        print(
            f"TRACE MISMATCHES ({len(mismatches)}):", *mismatches,
            sep="\n  ",
        )
        return 1
    print(
        "trace verified: replay reproduced the measured run exactly"
        " and matched the cost model"
    )
    return 0


def _trace_reasons(result) -> List[str]:
    """Why a traced run failed its replay or cost-model cross-check."""
    reasons = list(result.trace["mismatches"])
    if not result.cost_model["exact_match"]:
        reasons.append("cost-model prediction disagreed")
    return reasons


def _cmd_run(args: argparse.Namespace) -> int:
    suite = _suite(args)
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.path.join(args.out, ".lab_cache")
        cache = ResultCache(cache_dir)
    logger = get_logger("lab")
    log = None if args.quiet else logger.info
    counters_before = COUNTERS.snapshot()
    if args.batch:
        if args.jobs != 1:
            print("--batch runs serially; drop --jobs")
            return 2
        from .batch import run_suite_batched

        run = run_suite_batched(
            suite, cache=cache, force=args.force, log=log, trace=args.trace,
        )
    else:
        run = run_suite(
            suite, jobs=args.jobs, cache=cache, force=args.force, log=log,
            trace=args.trace,
        )

    # The artifact payload (records + certification) is computed once
    # and reused for the console output, the written artifact and the
    # optional markdown report.
    payload = artifact_payload(run, timings=args.timings)
    records = payload["scenarios"]
    cert = payload["certification"]
    violations = cert["bound_violations"]
    parity = all_parity_failures(records)
    cost = payload["cost_model"]
    cost_failures = cost["mismatches"]

    print()
    print(format_results_table(run.results))
    print()
    print(format_aggregate_table(aggregate(run.results)))
    print()
    print(format_certification_table(records))
    print()
    print(format_cost_table(records))
    print()
    print(
        f"certification: {cert['scenarios_checked']} scenarios checked "
        f"({cert['formula_certified']} formula, {cert['cut_checked']} "
        f"cut-accounting), {len(violations)} violation(s); "
        f"{len(parity)} parity failure(s)"
    )
    print(
        f"cost model: {cost['runs']} runs priced, {cost['exact_matches']} "
        f"exact on all four metrics, {len(cost_failures)} mismatch(es)"
    )
    if args.trace:
        traced = run.traced
        mismatched = run.trace_mismatches
        print(
            f"trace: {len(traced)} run(s) traced, "
            f"{len(traced) - len(mismatched)} replay-verified, "
            f"{len(mismatched)} mismatch(es)"
        )
    print(
        f"suite {suite.name!r}: {len(run.results)} scenarios, "
        f"{run.cache_hits} cached ({run.hit_rate:.0%}), "
        f"{run.executed} executed on {run.jobs} job(s) "
        f"in {run.wall_time:.2f}s"
    )
    if args.timings:
        # The engine-side twin of predict's "timing recurrence" line.
        simulated = sum(r.measured_rounds for r in run.results)
        jumped = sum(
            (r.observability or {}).get("engine.fast_forward_rounds", 0)
            for r in run.results
        )
        print(
            f"engine rounds: {simulated} simulated, "
            f"{simulated - jumped} stepped, {jumped} fast-forwarded"
        )
        # This process's planning ledger (run_suite starts memos cold;
        # with --jobs N the workers' share is not in it).
        planned = counter_delta(counters_before, COUNTERS.snapshot())
        expanded, shared = (planned.get(name, 0) for name in STEINER_COUNTERS)
        print(
            f"steiner: {memo_stats()['steiner.pack']['misses']} packings, "
            f"{expanded} states expanded, {shared} shared"
        )
    if run.batch is not None:
        batch = run.batch
        print(
            f"batch: {batch['multi_groups']} group(s) covering "
            f"{batch['grouped_scenarios']} scenario(s), "
            f"{batch['stacked_checks']} stacked solve(s) verified"
        )

    artifact = write_artifact(run, args.out, payload=payload)
    print(f"wrote {artifact}")
    if args.markdown:
        path = os.path.join(args.out, f"LAB_{suite.name}.md")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(run, records=records))
        print(f"wrote {path}")
    if args.csv:
        path = os.path.join(args.out, f"LAB_{suite.name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_csv(run.results))
        print(f"wrote {path}")

    status = 0
    if not run.all_correct:
        bad = [r.spec.label for r in run.results if not r.correct]
        print(f"INCORRECT scenarios ({len(bad)}):", *bad, sep="\n  ")
        status = 1
    if violations:
        print(f"BOUND VIOLATIONS ({len(violations)}):", *violations, sep="\n  ")
        status = 1
    if parity:
        print(f"PARITY FAILURES ({len(parity)}):", *parity, sep="\n  ")
        status = 1
    if cost_failures:
        print(
            f"COST MISMATCHES ({len(cost_failures)}):", *cost_failures,
            sep="\n  ",
        )
        status = 1
    if args.trace and run.trace_mismatches:
        details = [
            f"{r.spec.label}: " + "; ".join(_trace_reasons(r))
            for r in run.trace_mismatches
        ]
        print(f"TRACE MISMATCHES ({len(details)}):", *details, sep="\n  ")
        status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "info"))
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "parity":
            return _cmd_parity(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_run(args)
    except _UsageError as exc:
        print(
            f"python -m repro.lab {args.command}: error: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
