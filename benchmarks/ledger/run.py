#!/usr/bin/env python3
"""The layer-ledger benchmark: one command, five seeded workloads.

Driver form (one workload, one run; the last line of standard output is
the result object)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

Without ``--workload`` every workload runs, untraced then traced, and
every metric is printed by name with its unit.  ``--repeat K`` does
that K times on the same seed and compares the runs against the bounds
in ``BENCHMARK.json``; ``--selftest`` checks the benchmark's own output
contract at tiny sizes.  See ``README.md`` beside this file.

Each workload runs in a fresh child process, so its set-up time and
peak memory are its own; set-up is repeated in further children and the
median reported.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: How many times set-up is measured per run (the measuring child
#: included); the serving set-up costs seconds, the others tenths.
SETUP_SAMPLES = {
    "stream-line-xl": 5, "wide-expander": 5, "fuzz-sweep": 5,
    "serve-closed": 3, "serve-poisson": 3,
}

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: Files a lab or serving run leaves in its working directory when it
#: is not told where to write; the benchmark must leave none.
STRAY_ARTIFACTS = (".lab_cache", "BENCH_lab.json", "BENCH_serving.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child: one workload, in this process
# ---------------------------------------------------------------------------


def _stray_state() -> Dict[str, Optional[float]]:
    state: Dict[str, Optional[float]] = {}
    for base in {os.getcwd(), ROOT}:
        for name in STRAY_ARTIFACTS:
            path = os.path.join(base, name)
            state[path] = os.path.getmtime(path) if os.path.exists(path) else None
    return state


def child_main(args: argparse.Namespace) -> int:
    """Set up, measure, verify; print one JSON object on the last line."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    strays_before = _stray_state()

    import inputs
    from spans import SpanRecorder
    from stats import Tally

    sizes = inputs.TINY if args.sizes == "tiny" else inputs.FULL
    tally = Tally()
    rec = SpanRecorder() if args.trace else None
    reports: List[Dict[str, Any]] = []
    clock: Dict[str, float] = {}

    def report(name: str, value: float, unit: str, **extra: float) -> None:
        reports.append({"name": name, "value": value, "unit": unit, **extra})

    def setup_done() -> None:
        clock["setup_s"] = time.time() - args.spawned_at

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    metrics: Dict[str, float] = {}
    try:
        if args.workload in ("stream-line-xl", "wide-expander"):
            import wl_pipeline

            build = (inputs.stream_spec if args.workload == "stream-line-xl"
                     else inputs.wide_spec)
            spec = build(args.seed, sizes)
            wl_pipeline.warm_up(spec)
            setup_done()
            if not args.setup_only:
                metrics = wl_pipeline.run(spec, args.seconds, rec, tally, report)
        elif args.workload == "fuzz-sweep":
            import wl_sweep

            suite, info = inputs.fuzz_suite(args.seed, sizes)
            wl_sweep.warm_up(suite, len(suite) // info["identities"])
            setup_done()
            if not args.setup_only:
                metrics = wl_sweep.run(suite, info, args.seconds, rec, tally,
                                       scratch, report)
        else:
            import wl_serve

            specs = inputs.serve_sessions(args.seed, sizes)
            metrics = wl_serve.run(args.workload, specs, args.seed,
                                   args.seconds, rec, tally, setup_done,
                                   args.setup_only, report)

        from repro.serve import live_segment_names

        leaked = live_segment_names()
        if leaked:
            tally.record(False, f"/dev/shm segments left behind: {leaked}")
        moved = [p for p, m in _stray_state().items() if strays_before[p] != m]
        if moved:
            tally.record(False, f"artifacts written outside {scratch}: {moved}")
        if rec is not None and not args.setup_only:
            rec.write_chrome_trace(
                os.path.join(OUT_DIR, f"trace-{args.workload}.json")
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = rss / 1024.0
    print(json.dumps({
        "setup_s": clock["setup_s"], "attempted": tally.attempted,
        "failed": tally.failed, "messages": tally.messages,
        "metrics": metrics, "reports": reports,
    }))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn children, assemble the result object
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, sizes: str,
          setup_only: bool) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--sizes", sizes,
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    # A fixed hash seed: set and dict iteration order, and with it the
    # work some planning loops do, is the same in every child.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, env=env)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: child exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(contract: Dict[str, Any], workload: str, seed: int,
                 seconds: float, trace: int,
                 sizes: str = "full") -> Dict[str, Any]:
    """One run of one workload: the result object the driver reads."""
    samples = 2 if sizes == "tiny" else SETUP_SAMPLES[workload]
    setups = [
        spawn(workload, seed, seconds, trace, sizes, True)["setup_s"]
        for _ in range(samples - 1)
    ]
    child = spawn(workload, seed, seconds, trace, sizes, False)
    setups.append(child["setup_s"])

    wanted = contract["per_layer" if trace else "end_to_end"]
    measured = dict(child["metrics"])
    failed = child["failed"]
    messages = list(child["messages"])
    if not trace:
        measured["setup_s"] = statistics.median(setups)
    metrics: Dict[str, Dict[str, Any]] = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            value = measured.pop(name)
        elif trace:
            value = 0.0  # a layer this workload does not enter
        else:
            failed += 1
            messages.append(f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    if measured:
        failed += 1
        messages.append(f"metrics not in BENCHMARK.json: {sorted(measured)}")

    result = {
        "correct": failed == 0, "attempted": max(1, child["attempted"]),
        "failed": failed, "metrics": metrics,
    }
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    for line in child["reports"]:
        extras = " ".join(
            f"{key}={value:.6g}" for key, value in line.items()
            if key not in ("name", "value", "unit")
        )
        print(f"  {line['name']:32s} {line['value']:.6g} "
              f"{line['unit']} {extras}".rstrip())
    for name, cell in metrics.items():
        print(f"  {name:44s} {cell['value']:.6g} {cell['unit']}")
    print(f"  setup_s samples: "
          f"{' '.join(f'{s:.3f}' for s in setups)}")
    for message in messages:
        print(f"  FAILED: {message}")
    return result


# ---------------------------------------------------------------------------
# Whole-benchmark modes
# ---------------------------------------------------------------------------


def run_all(contract: Dict[str, Any], seed: int, seconds: float,
            sizes: str = "full") -> Dict[str, Dict[str, Any]]:
    """Every workload, untraced then traced: ``{workload: {0:…, 1:…}}``."""
    table: Dict[str, Dict[str, Any]] = {}
    for entry in contract["workloads"]:
        name = entry["name"]
        table[name] = {
            str(trace): run_workload(contract, name, seed, seconds, trace, sizes)
            for trace in (0, 1)
        }
    return table


#: Counters that follow how many requests a serving window completed,
#: so they cannot repeat exactly between two timed runs.
LOAD_DEPENDENT_COUNTS = (
    "serve.server.batches", "faq.plan_cache.hits", "faq.plan_cache.misses",
    "core.memo.hits", "core.memo.misses",
)


def repeat(contract: Dict[str, Any], seed: int, seconds: float, count: int,
           out: Optional[str]) -> int:
    """Run the whole benchmark ``count`` times on the same code and seed
    and hold each metric's spread against its bound."""
    runs = [run_all(contract, seed, seconds) for _ in range(count)]
    gates = {entry["name"]: entry for entry in contract["end_to_end"]}
    exact_units = {
        entry["name"] for entry in contract["per_layer"]
        if entry["unit"] == "count"
    }
    rows: List[Dict[str, Any]] = []
    outside = 0
    for workload in runs[0]:
        serving = workload.startswith("serve-")
        for trace in ("0", "1"):
            if any(not run[workload][trace]["correct"] for run in runs):
                outside += 1
                print(f"OUTSIDE {workload} trace={trace}: a run failed")
            for name in runs[0][workload][trace]["metrics"]:
                values = [
                    run[workload][trace]["metrics"][name]["value"]
                    for run in runs
                ]
                middle = statistics.median(values)
                spread = (max(values) - min(values)) / abs(middle) if middle else 0.0
                gate = gates.get(name)
                if gate is not None:
                    bound, verdict = gate["bound"], spread <= gate["bound"]
                elif name in exact_units and not (
                    serving and name in LOAD_DEPENDENT_COUNTS
                ):
                    bound, verdict = 0.0, spread == 0.0
                else:
                    bound, verdict = None, True
                outside += not verdict
                rows.append({
                    "workload": workload, "trace": int(trace), "metric": name,
                    "values": values, "spread": spread, "bound": bound,
                    "within": verdict,
                })
    print(f"\n== repeat x{count}: relative spread (max-min)/median "
          f"against each metric's bound")
    for row in rows:
        if row["bound"] is None:
            continue
        flag = "ok     " if row["within"] else "OUTSIDE"
        print(f"  {flag} {row['workload']:15s} {row['metric']:40s} "
              f"spread {row['spread']:.4f} bound {row['bound']:g}")
    record = {"seed": seed, "seconds": seconds, "runs": count, "rows": rows,
              "outside": outside}
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"repeat": count, "outside": outside}))
    return 1 if outside else 0


def selftest(contract: Dict[str, Any]) -> int:
    """The output contract at tiny sizes: every metric of
    ``BENCHMARK.json`` emitted exactly once with its unit, well-formed
    names, and span trees whose self times sum to each operation."""
    problems: List[str] = []
    names = [e["name"] for e in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    problems += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    table = run_all(contract, seed=1, seconds=1.0, sizes="tiny")
    for workload, by_trace in table.items():
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = by_trace[trace]
            want = {e["name"]: e["unit"] for e in contract[key]}
            got = {n: c["unit"] for n, c in result["metrics"].items()}
            if got != want:
                problems.append(
                    f"{workload} trace={trace}: metrics differ from "
                    f"BENCHMARK.json by {sorted(set(got) ^ set(want))}"
                )
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
        problems += _check_trace_file(workload)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print(json.dumps({"selftest": "failed" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def _check_trace_file(workload: str) -> List[str]:
    path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    with open(path) as handle:
        events = [e for e in json.load(handle)["traceEvents"] if e["ph"] == "X"]
    if not events:
        return [f"{workload}: empty trace"]
    covered: Dict[int, float] = {}
    for index, event in enumerate(events):
        parent = event["args"]["parent"]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + event["dur"]
    self_by_op: Dict[int, float] = {}
    problems = []
    for index, event in enumerate(events):
        own = event["dur"] - covered.get(index, 0.0)
        if own < -1.0:  # a microsecond of float slack
            problems.append(
                f"{workload}: children of span {index} ({event['name']}) "
                f"outlast it by {-own:.1f} us"
            )
        op = event["args"]["op"]
        self_by_op[op] = self_by_op.get(op, 0.0) + own
    for op, total in self_by_op.items():
        if abs(total - events[op]["dur"]) > 1.0 + 1e-6 * events[op]["dur"]:
            problems.append(
                f"{workload}: self times of op {op} sum to {total:.1f} us, "
                f"its span lasts {events[op]['dur']:.1f} us"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--out", help="write the --repeat record here")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    contract = load_contract()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(
        contract["run_seconds"]
    )
    if args.selftest:
        return selftest(contract)
    if args.repeat:
        return repeat(contract, args.seed, seconds, args.repeat, args.out)
    if args.workload is None:
        table = run_all(contract, args.seed, seconds)
        results = [r for by_trace in table.values() for r in by_trace.values()]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }))
        return 0
    known = [w["name"] for w in contract["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    result = run_workload(contract, args.workload, args.seed, seconds,
                          args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
