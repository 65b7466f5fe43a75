"""Print the regenerated goldens against a git revision's, case by case.

Usage, from the repository root::

    python tests/golden/old_vs_new.py REV

For every case of ``engine_results.json`` and ``costmodel_timing.json``,
every run of ``BENCH_lab.json`` and every row of ``TABLE1_golden.md`` it
prints ``old -> new`` for the fields that moved, then checks what a
change to the protocol's rounds alone may do: rounds and gaps never go
up, and answers, total bits, the busiest link-round and the per-link bit
map (as a mapping: ``BENCH_lab.json`` records its order-free digest)
stay equal.  The other goldens (``LAB_golden.*``, ``TIMELINE_golden.txt``)
are printed as a diff.  Exit status 1 names each broken check.
"""

import difflib
import json
import subprocess
import sys

GOLDEN = "tests/golden/"
#: Fields a rounds-only change must leave equal.
FIXED = ("label", "total_bits", "max_edge_bits_per_round")
#: ``BENCH_lab.json`` record fields that must stay equal.
FIXED_RECORD = ("answer_digest", "total_bits", "correct", "cut_bits",
                "cut_size", "bound_ok", "cut_ok")


def _old(rev, path):
    return subprocess.check_output(["git", "show", f"{rev}:{path}"], text=True)


def _new(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cases(rev, name, broken):
    old, new = json.loads(_old(rev, GOLDEN + name)), json.loads(_new(GOLDEN + name))
    print(f"== {name}: {len(new)} cases")
    if old.keys() != new.keys():
        broken.append(f"{name}: case names differ")
    for case in sorted(old.keys() & new.keys()):
        moved = {f: (old[case][f], new[case][f]) for f in new[case]
                 if old[case].get(f) != new[case][f]}
        if moved:
            print(f"  {case}: " + ", ".join(
                f"{f} {a} -> {b}" if isinstance(b, int) else f"{f} changed"
                for f, (a, b) in sorted(moved.items())))
        for field in FIXED:
            if field in moved:
                broken.append(f"{name} {case}: {field} moved")
        if new[case]["rounds"] > old[case]["rounds"]:
            broken.append(f"{name} {case}: rounds went up")


def _records(rev, broken):
    old = json.loads(_old(rev, "BENCH_lab.json"))["scenarios"]
    new = json.loads(_new("BENCH_lab.json"))["scenarios"]
    print(f"== BENCH_lab.json: {len(new)} runs")
    if [r["label"] for r in old] != [r["label"] for r in new]:
        broken.append("BENCH_lab.json: run labels differ")
    lower = 0
    for a, b in zip(old, new):
        if a["measured_rounds"] != b["measured_rounds"]:
            lower += b["measured_rounds"] < a["measured_rounds"]
            print(f"  {b['label']}: rounds {a['measured_rounds']} -> "
                  f"{b['measured_rounds']}, lower_certified "
                  f"{a['lower_certified']:.2f} -> {b['lower_certified']:.2f}")
        for field in FIXED_RECORD:
            if a[field] != b[field]:
                broken.append(f"BENCH_lab.json {b['label']}: {field} moved")
        was, now = a["cost_model"]["measured"], b["cost_model"]["measured"]
        for field in ("bits_per_edge_digest", "max_edge_bits_per_round"):
            if was[field] != now[field]:
                broken.append(f"BENCH_lab.json {b['label']}: {field} moved")
        if b["measured_rounds"] > a["measured_rounds"]:
            broken.append(f"BENCH_lab.json {b['label']}: rounds went up")
        if a["gap"] is not None and b["gap"] > a["gap"]:
            broken.append(f"BENCH_lab.json {b['label']}: gap went up")
    print(f"  {lower} of {len(new)} runs take fewer rounds")


def _table1_rows(text):
    """``(row, N, rounds, lower)`` per run line of a Table 1 report."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 13 and parts[0].startswith(("faq-", "bcq-")):
            rows.append((parts[0], parts[5], int(parts[6]), float(parts[8])))
    return rows


def _table1(rev, broken):
    old = _table1_rows(_old(rev, GOLDEN + "TABLE1_golden.md"))
    new = _table1_rows(_new(GOLDEN + "TABLE1_golden.md"))
    print(f"== TABLE1_golden.md: {len(new)} runs")
    for (_family, _n, was, _lower), (family, n, rounds, lower) in zip(old, new):
        print(f"  {family:<15} N={n:<4} rounds {was} -> {rounds} "
              f"(lower formula {lower:g})")
        if rounds > was:
            broken.append(f"TABLE1 {family} N={n}: rounds went up")
        if family in ("faq-line", "faq-arbitrary") and rounds < lower:
            broken.append(f"TABLE1 {family} N={n}: under its formula")


def _text(rev, name):
    diff = difflib.unified_diff(
        _old(rev, GOLDEN + name).splitlines(), _new(GOLDEN + name).splitlines(),
        f"{rev}:{name}", name, lineterm="", n=0,
    )
    print(f"== {name}")
    for line in diff:
        print("  " + line)


def main(rev):
    broken = []
    _cases(rev, "engine_results.json", broken)
    _cases(rev, "costmodel_timing.json", broken)
    _records(rev, broken)
    _table1(rev, broken)
    for name in ("LAB_golden.md", "LAB_golden.csv", "TIMELINE_golden.txt"):
        _text(rev, name)
    for problem in broken:
        print("BROKEN:", problem)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
